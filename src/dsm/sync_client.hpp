// Client stubs for the data servers' synchronization services (paper §3.2:
// "The synchronization support provided by data servers allows threads to
// synchronize their actions regardless of where they execute") and for
// their two-phase-commit participant.
//
// Segment locks are addressed to the segment's home data server; semaphore
// ids embed their home server in the upper 32 bits. Every call crosses the
// wire, even to a data server on this very node.
#pragma once

#include <vector>

#include "dsm/protocol.hpp"
#include "ra/node.hpp"
#include "store/disk_store.hpp"

namespace clouds::dsm {

class SyncClient {
 public:
  explicit SyncClient(ra::Node& node) : node_(node) {}

  // Blocking lock on a segment; Errc::deadlock after the bounded wait.
  Result<void> lock(sim::Process& self, const Sysname& segment, LockMode mode,
                    std::uint64_t owner);
  // Release everything `owner` holds on the given data server.
  Result<void> unlockAll(sim::Process& self, net::NodeId server, std::uint64_t owner);

  Result<std::uint64_t> semCreate(sim::Process& self, net::NodeId server, std::int64_t initial);
  Result<void> semP(sim::Process& self, std::uint64_t sem);
  Result<void> semV(sim::Process& self, std::uint64_t sem);

  // ---- Two-phase commit, coordinator side ----
  // Stage `updates` in the participant's durable log under `txid`.
  Result<void> prepare(sim::Process& self, net::NodeId server, std::uint64_t txid,
                       const std::vector<store::PageUpdate>& updates);
  // Deliver the decision for a prepared `txid`.
  Result<void> decide(sim::Process& self, net::NodeId server, std::uint64_t txid, bool commit);

 private:
  Result<Bytes> call(sim::Process& self, net::NodeId server, const Bytes& request,
                     sim::Duration timeout);

  ra::Node& node_;
};

}  // namespace clouds::dsm

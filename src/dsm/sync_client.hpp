// Client stubs for the data servers' synchronization services (paper §3.2:
// "The synchronization support provided by data servers allows threads to
// synchronize their actions regardless of where they execute") and for
// their two-phase-commit participant.
//
// Segment locks are addressed to the segment's home data server; semaphore
// ids embed their home server in the upper 32 bits. Every call goes through
// the node's DSM client partition's exchange(): a local call when that data
// server is this very node, else a RaTP transaction.
#pragma once

#include <vector>

#include "dsm/client.hpp"
#include "dsm/protocol.hpp"

namespace clouds::dsm {

class SyncClient {
 public:
  explicit SyncClient(DsmClientPartition& dsm) : dsm_(dsm) {}

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
  DsmClientPartition& dsm_;
};

}  // namespace clouds::dsm

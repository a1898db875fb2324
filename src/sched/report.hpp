// LoadReport — the on-wire load record of the scheduling subsystem.
//
// The paper (§3.2) leaves thread placement open: it "may depend on such
// factors as scheduling policies and the load at each compute server". A
// real Clouds installation has no global view, so load knowledge must
// travel as messages. Each compute server periodically broadcasts one small
// LoadReport frame (protocol net::kProtoSched); every interested node folds
// received reports into its sched::LoadTable. Nothing else about a remote
// node's load is observable.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/sysname.hpp"
#include "net/ethernet.hpp"

namespace clouds::sched {

// Wire format (little-endian, via clouds::Encoder — see docs/SCHEDULING.md):
//   u8  version (=1)
//   u32 node            sender's node id
//   u64 seq             per-sender sequence number (monotone while up)
//   u32 threads         live Clouds threads hosted (run-queue length proxy)
//   u32 frame_permille  DSM frame-cache occupancy, 0..1000
//   u64 ewma_latency_usec  EWMA of recent invocation completion latency
//   u32 homed_hot       hot objects homed on this node's own data server
//                       (v2; feeds the Migrator's low-watermark rebalance)
//   u32 segment_count, then that many 16-byte sysnames: the locality digest
//       (segments with resident DSM frames, sorted, capped)
struct LoadReport {
  static constexpr std::uint8_t kVersion = 2;
  // Cap keeps the report inside one Ethernet frame: 39 bytes of header +
  // 24 * 16 bytes of digest = 423 bytes, well under the 1500-byte MTU.
  static constexpr std::size_t kMaxSegments = 64;

  net::NodeId node = net::kNoNode;
  std::uint64_t seq = 0;
  std::uint32_t threads = 0;
  std::uint32_t frame_permille = 0;
  std::uint64_t ewma_latency_usec = 0;
  std::uint32_t homed_hot = 0;
  std::vector<Sysname> cached;

  bool caches(const Sysname& segment) const;

  Bytes encode() const;
  static Result<LoadReport> decode(const Message& wire);
};

}  // namespace clouds::sched

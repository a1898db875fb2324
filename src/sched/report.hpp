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

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "common/sysname.hpp"
#include "net/ethernet.hpp"

namespace clouds::sched {

struct LoadReport {
  static constexpr std::uint8_t kVersion = 2;
  // Cap keeps the report inside one Ethernet frame: 37 bytes of header +
  // 24 * 16 bytes of digest = 421 bytes, well under the 1500-byte MTU.
  static constexpr std::size_t kMaxSegments = 64;

  net::NodeId node = net::kNoNode;
  std::uint64_t seq = 0;
  std::uint32_t threads = 0;
  std::uint32_t frame_permille = 0;
  std::uint64_t ewma_latency_usec = 0;
  std::uint32_t homed_hot = 0;
  std::vector<Sysname> cached;

  bool caches(const Sysname& segment) const {
    return std::find(cached.begin(), cached.end(), segment) != cached.end();
  }

  // The layout (docs/SCHEDULING.md tables it): the version, the load
  // figures, then the locality digest (segments with resident DSM frames,
  // sorted).
  template <typename R, typename F>
  static void fields(R& r, F& f) {
    f(codec::Constant{kVersion, [](std::uint8_t v) {
                        return "LoadReport: unknown version " + std::to_string(v);
                      }});
    f(r.node);
    f(r.seq);
    f(r.threads);
    f(r.frame_permille);
    f(r.ewma_latency_usec);
    f(r.homed_hot);
    f(codec::Capped{r.cached, kMaxSegments, "LoadReport: oversized locality digest"});
  }

  Bytes encode() const { return codec::encode(*this).take(); }
  // A report fills its frame body.
  static Result<LoadReport> decode(const Message& wire) {
    Decoder d(wire);
    auto r = codec::read<LoadReport>(d);
    if (r.ok() && !d.atEnd()) return makeError(Errc::bad_argument, "LoadReport: trailing bytes");
    return r;
  }
};

}  // namespace clouds::sched

#include "sched/report.hpp"

#include <algorithm>

#include "common/codec.hpp"

namespace clouds::sched {

bool LoadReport::caches(const Sysname& segment) const {
  return std::find(cached.begin(), cached.end(), segment) != cached.end();
}

Bytes LoadReport::encode() const {
  Encoder e;
  e.u8(kVersion);
  e.u32(node);
  e.u64(seq);
  e.u32(threads);
  e.u32(frame_permille);
  e.u64(ewma_latency_usec);
  e.u32(homed_hot);
  e.u32(static_cast<std::uint32_t>(std::min(cached.size(), kMaxSegments)));
  for (std::size_t i = 0; i < cached.size() && i < kMaxSegments; ++i) e.sysname(cached[i]);
  return std::move(e).take();
}

Result<LoadReport> LoadReport::decode(const Message& wire) {
  Decoder d(wire);
  LoadReport r;
  CLOUDS_TRY_ASSIGN(version, d.u8());
  if (version != kVersion) {
    return makeError(Errc::bad_argument,
                     "LoadReport: unknown version " + std::to_string(version));
  }
  CLOUDS_TRY_ASSIGN(node, d.u32());
  r.node = node;
  CLOUDS_TRY_ASSIGN(seq, d.u64());
  r.seq = seq;
  CLOUDS_TRY_ASSIGN(threads, d.u32());
  r.threads = threads;
  CLOUDS_TRY_ASSIGN(permille, d.u32());
  r.frame_permille = permille;
  CLOUDS_TRY_ASSIGN(ewma, d.u64());
  r.ewma_latency_usec = ewma;
  CLOUDS_TRY_ASSIGN(homed, d.u32());
  r.homed_hot = homed;
  CLOUDS_TRY_ASSIGN(count, d.u32());
  if (count > kMaxSegments) {
    return makeError(Errc::bad_argument, "LoadReport: oversized locality digest");
  }
  r.cached.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    CLOUDS_TRY_ASSIGN(name, d.sysname());
    r.cached.push_back(name);
  }
  if (!d.atEnd()) return makeError(Errc::bad_argument, "LoadReport: trailing bytes");
  return r;
}

}  // namespace clouds::sched

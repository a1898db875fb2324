// Wire protocol of the DSM subsystem (paper §3.2 box "Distributed Shared
// Memory" and §4.2 "DSM Clients and Servers").
//
// One RaTP service per data server, kPortDsm, carries every request a
// compute server makes of it: page coherence (read/write/write-back),
// segment ops, segment locks and distributed semaphores ("the data servers
// also provide support for distributed synchronization"), and the
// two-phase-commit participant. One service per compute server,
// kPortDsmCallback, carries the data servers' invalidate/degrade callbacks.
#pragma once

#include <cstdint>
#include <vector>

#include "common/codec.hpp"
#include "ra/types.hpp"
#include "store/wal.hpp"

namespace clouds::dsm {

enum class Op : std::uint8_t {
  // kPortDsm, client -> data server: pages and segments
  read_page = 1,
  write_page = 2,
  create_segment = 4,
  stat_segment = 6,
  destroy_segment = 7,
  write_back_batch = 8,  // dirty pages of one segment in one exchange
  // kPortDsmCallback, data server -> client
  invalidate = 20,
  degrade = 21,
  // kPortDsm: locks and semaphores
  lock = 30,
  unlock_all = 31,
  sem_create = 32,
  sem_p = 33,
  sem_v = 34,
  // kPortDsm: two-phase-commit participant
  tx_prepare = 40,
  tx_commit = 41,
  tx_abort = 42,
};

enum class LockMode : std::uint8_t { shared = 0, exclusive = 1 };

// Every reply starts with a status byte (Errc); 0 means ok.
inline void encodeStatus(Encoder& e, Errc c) { e.u8(static_cast<std::uint8_t>(c)); }

inline Result<void> decodeStatus(Decoder& d, const char* what) {
  CLOUDS_TRY_ASSIGN(s, d.u8());
  const auto code = static_cast<Errc>(s);
  if (code != Errc::ok) return makeError(code, std::string(what) + " failed remotely");
  return okResult();
}

inline void encodePageKey(Encoder& e, const ra::PageKey& k) {
  e.sysname(k.segment);
  e.u32(k.page);
}

inline Result<ra::PageKey> decodePageKey(Decoder& d) {
  CLOUDS_TRY_ASSIGN(seg, d.sysname());
  CLOUDS_TRY_ASSIGN(page, d.u32());
  return ra::PageKey{seg, page};
}

// A page grant flowing data server -> client.
struct PageGrant {
  std::uint64_t version = 0;
  bool zero_fill = false;  // true: no bytes follow; client zero-fills
  Bytes data;
};

inline void encodeGrant(Encoder& e, const PageGrant& g) {
  e.u64(g.version);
  e.boolean(g.zero_fill);
  if (!g.zero_fill) e.bytes(g.data);
}

inline Result<PageGrant> decodeGrant(Decoder& d) {
  PageGrant g;
  CLOUDS_TRY_ASSIGN(version, d.u64());
  g.version = version;
  CLOUDS_TRY_ASSIGN(zf, d.boolean());
  g.zero_fill = zf;
  if (!g.zero_fill) {
    CLOUDS_TRY_ASSIGN(data, d.bytes());
    g.data = std::move(data);
  }
  return g;
}

}  // namespace clouds::dsm

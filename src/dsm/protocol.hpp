// Wire protocol of the DSM subsystem (paper §3.2 box "Distributed Shared
// Memory" and §4.2 "DSM Clients and Servers").
//
// One RaTP service per data server, kPortDsm, carries every request a
// compute server makes of it: page coherence (read/write/write-back),
// segment ops, segment locks and distributed semaphores ("the data servers
// also provide support for distributed synchronization"), and the
// two-phase-commit participant. One service per compute server,
// kPortDsmCallback, carries the data servers' invalidate/degrade callbacks.
//
// This header is the request codec of both services. A Request is an op
// plus every field some op carries; requestFields() lists each op's fields
// in wire order, once, and encodeRequest()/decodeRequest() both walk that
// list, so a sender and a receiver cannot disagree on a layout. Next to it
// is the patience table: each op's RaTP budget and the name its remote
// failure reports. A reply is a status byte, then the op's result (a
// grant, a sysname, segment info, a semaphore id or a surrendered page).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "net/ratp.hpp"
#include "ra/types.hpp"
#include "sim/cost_model.hpp"
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

// ---------------------------------------------------------------- requests

// One request of either service. An op uses only the fields
// requestFields() lists for it; the others keep their defaults.
struct Request {
  Op op{};
  ra::PageKey key{};                 // read_page, write_page, invalidate, degrade
  std::uint64_t version = 0;         // invalidate, degrade
  Sysname segment{};                 // stat_segment, destroy_segment, lock
  std::uint64_t length = 0;          // create_segment
  bool zero_fill = false;            // create_segment
  bool drop = false;                 // write_back_batch
  LockMode mode = LockMode::shared;  // lock
  std::uint64_t owner = 0;           // lock, unlock_all
  std::int64_t initial = 0;          // sem_create
  std::uint64_t sem = 0;             // sem_p, sem_v
  std::uint64_t txid = 0;            // tx_prepare, tx_commit, tx_abort
  std::vector<store::PageUpdate> updates{};  // write_back_batch, tx_prepare
};

// Each op's fields after its op byte, in wire order: the one statement of
// every request layout (docs/PROTOCOLS.md tables them). Calls `field` on
// each field of `r` in turn; false when `r.op` names no op.
template <typename R, typename Field>
bool requestFields(R& r, Field&& field) {
  switch (r.op) {
    case Op::read_page:
    case Op::write_page:
      field(r.key);
      return true;
    case Op::create_segment:
      field(r.length);
      field(r.zero_fill);
      return true;
    case Op::stat_segment:
    case Op::destroy_segment:
      field(r.segment);
      return true;
    case Op::write_back_batch:
      field(r.drop);
      field(r.updates);
      return true;
    case Op::invalidate:
    case Op::degrade:
      field(r.key);
      field(r.version);
      return true;
    case Op::lock:
      field(r.segment);
      field(r.mode);
      field(r.owner);
      return true;
    case Op::unlock_all:
      field(r.owner);
      return true;
    case Op::sem_create:
      field(r.initial);
      return true;
    case Op::sem_p:
    case Op::sem_v:
      field(r.sem);
      return true;
    case Op::tx_prepare:
      field(r.txid);
      field(r.updates);
      return true;
    case Op::tx_commit:
    case Op::tx_abort:
      field(r.txid);
      return true;
  }
  return false;
}

namespace detail {

// One field onto the wire, by its type.
struct FieldWriter {
  Encoder& e;
  void operator()(const ra::PageKey& k) const {
    (*this)(k.segment);
    (*this)(k.page);
  }
  void operator()(const Sysname& s) const { e.sysname(s); }
  void operator()(std::uint32_t v) const { e.u32(v); }
  void operator()(std::uint64_t v) const { e.u64(v); }
  void operator()(std::int64_t v) const { e.i64(v); }
  void operator()(bool v) const { e.boolean(v); }
  void operator()(LockMode m) const { e.u8(static_cast<std::uint8_t>(m)); }
  void operator()(const std::vector<store::PageUpdate>& u) const {
    store::encodePageUpdates(e, u);
  }
};

// One field off the wire, by its type; after the first field that does not
// decode, it reads nothing more.
struct FieldReader {
  Decoder& d;
  bool ok = true;
  void operator()(ra::PageKey& k) {
    (*this)(k.segment);
    (*this)(k.page);
  }
  void operator()(Sysname& s) { read(s, [this] { return d.sysname(); }); }
  void operator()(std::uint32_t& v) { read(v, [this] { return d.u32(); }); }
  void operator()(std::uint64_t& v) { read(v, [this] { return d.u64(); }); }
  void operator()(std::int64_t& v) { read(v, [this] { return d.i64(); }); }
  void operator()(bool& v) { read(v, [this] { return d.boolean(); }); }
  void operator()(LockMode& m) {
    read(m, [this]() -> Result<LockMode> {
      CLOUDS_TRY_ASSIGN(raw, d.u8());
      return static_cast<LockMode>(raw);
    });
  }
  void operator()(std::vector<store::PageUpdate>& u) {
    read(u, [this] { return store::decodePageUpdates(d); });
  }

  template <typename T, typename Decode>
  void read(T& out, Decode decode) {
    if (!ok) return;
    auto r = decode();
    ok = r.ok();
    if (ok) out = std::move(r).value();
  }
};

}  // namespace detail

// The request as its service receives it: the op byte, then its fields.
// Page images travel by reference (Encoder::image).
inline Message encodeRequest(const Request& r) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(r.op));
  requestFields(r, detail::FieldWriter{e});
  return std::move(e).message();
}

// bad_argument for a request cut short or a byte that names no op. Which
// service serves the op is the receiver's check.
inline Result<Request> decodeRequest(const Message& message) {
  Decoder d(message);
  auto op = d.u8();
  if (!op.ok()) return makeError(Errc::bad_argument, "empty dsm request");
  Request r;
  r.op = static_cast<Op>(op.value());
  detail::FieldReader reader{d};
  if (!requestFields(r, reader)) {
    return makeError(Errc::bad_argument, "unknown dsm op " + std::to_string(op.value()));
  }
  if (!reader.ok) {
    return makeError(Errc::bad_argument, "dsm op " + std::to_string(op.value()) + " cut short");
  }
  return r;
}

// ---------------------------------------------------------------- patience

// The name a failed reply of this op reports (decodeStatus). It reaches the
// trace through the consistency layer and the Migrator's transcript.
inline const char* opName(Op op) {
  switch (op) {
    case Op::read_page:
    case Op::write_page: return "page fault";
    case Op::write_back_batch: return "write back batch";
    case Op::stat_segment: return "stat";
    case Op::create_segment: return "create segment";
    case Op::destroy_segment: return "destroy segment";
    case Op::lock: return "lock";
    case Op::unlock_all: return "unlock_all";
    case Op::sem_create: return "sem_create";
    case Op::sem_p: return "sem_p";
    case Op::sem_v: return "sem_v";
    case Op::tx_prepare: return "tx_prepare";
    case Op::tx_commit: return "tx_commit";
    case Op::tx_abort: return "tx_abort";
    case Op::invalidate:
    case Op::degrade: return "dsm callback";
  }
  return "dsm request";
}

// The RaTP budget of one request of this op; {} is the cost model's default.
inline net::RatpOptions patience(Op op, const sim::CostModel& cost) {
  switch (op) {
    // A fault must outlast the server's coherence-callback patience (the
    // server may spend ~1 s deciding a slow holder is dead before it can
    // grant); retransmissions are deduplicated server-side.
    case Op::read_page:
    case Op::write_page: return {sim::kZero, cost.dsm_callback_retries + 20};
    // Callbacks give up well before a waiting fault does, so a dead holder
    // is declared lost while the faulting client is still patient.
    case Op::invalidate:
    case Op::degrade: return {sim::kZero, cost.dsm_callback_retries};
    // Lock and semaphore waits block server-side, so the per-attempt
    // timeout must exceed the server's own wait bound. Retransmitted
    // requests are deduplicated by RaTP's reply cache (the handler keeps
    // waiting; it is never re-executed), so retries only guard against
    // lost frames.
    case Op::lock:
    case Op::unlock_all:
    case Op::sem_create: return {sim::msec(600), 3};
    case Op::sem_p:
    case Op::sem_v: return {sim::sec(2), 45};  // ~90 s total patience for a P()
    // A commit decision must survive a participant's crash+reboot window:
    // retransmit for ~1 s so the retried (idempotent) decision lands on the
    // rebooted server's durable prepared log. Aborts are best-effort — an
    // undelivered abort is mopped up by lease expiry and the in-doubt scan.
    case Op::tx_commit: return {sim::kZero, cost.txn_decision_retries};
    case Op::tx_abort: return {sim::kZero, cost.txn_cleanup_retries};
    default: return {};
  }
}

// ---------------------------------------------------------------- replies

// Every reply starts with a status byte (Errc); 0 means ok.
inline void encodeStatus(Encoder& e, Errc c) { e.u8(static_cast<std::uint8_t>(c)); }

inline Result<void> decodeStatus(Decoder& d, Op op) {
  CLOUDS_TRY_ASSIGN(s, d.u8());
  const auto code = static_cast<Errc>(s);
  if (code != Errc::ok) return makeError(code, std::string(opName(op)) + " failed remotely");
  return okResult();
}

// A page grant flowing data server -> client. The image is the store's,
// by reference; a zero-fill grant carries none.
struct PageGrant {
  std::uint64_t version = 0;
  bool zero_fill = false;  // true: no bytes follow; client zero-fills
  SharedBytes data;
};

inline void encodeGrant(Encoder& e, const PageGrant& g) {
  e.u64(g.version);
  e.boolean(g.zero_fill);
  if (!g.zero_fill) e.image(g.data);
}

inline Result<PageGrant> decodeGrant(Decoder& d) {
  PageGrant g;
  CLOUDS_TRY_ASSIGN(version, d.u64());
  g.version = version;
  CLOUDS_TRY_ASSIGN(zf, d.boolean());
  g.zero_fill = zf;
  if (!g.zero_fill) {
    CLOUDS_TRY_ASSIGN(data, d.image());
    g.data = std::move(data);
  }
  return g;
}

}  // namespace clouds::dsm

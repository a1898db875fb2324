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
// This header states both services' layouts, on the shared field codec
// (common/codec.hpp). A Request is an op plus every field some op carries,
// and Request::fields lists each op's fields in wire order once; a Reply is
// a status byte, then the op's result (a grant, a sysname, segment info, a
// semaphore id or a surrendered page), listed once by Reply::fields. The
// encoder and the decoder of each walk its list, so a sender and a
// receiver cannot disagree on a layout. Next to them is the patience
// table: each op's RaTP budget and the name its remote failure reports.
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

// One request of either service. An op uses only the fields fields()
// lists for it; the others keep their defaults.
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

  // The op byte, then its fields in wire order: the one statement of every
  // request layout (docs/PROTOCOLS.md tables them).
  template <typename R, typename F>
  static void fields(R& r, F& f) {
    f(r.op);
    switch (r.op) {
      case Op::read_page:
      case Op::write_page:
        f(r.key);
        return;
      case Op::create_segment:
        f(r.length);
        f(r.zero_fill);
        return;
      case Op::stat_segment:
      case Op::destroy_segment:
        f(r.segment);
        return;
      case Op::write_back_batch:
        f(r.drop);
        f(r.updates);
        return;
      case Op::invalidate:
      case Op::degrade:
        f(r.key);
        f(r.version);
        return;
      case Op::lock:
        f(r.segment);
        f(r.mode);
        f(r.owner);
        return;
      case Op::unlock_all:
        f(r.owner);
        return;
      case Op::sem_create:
        f(r.initial);
        return;
      case Op::sem_p:
      case Op::sem_v:
        f(r.sem);
        return;
      case Op::tx_prepare:
        f(r.txid);
        f(r.updates);
        return;
      case Op::tx_commit:
      case Op::tx_abort:
        f(r.txid);
        return;
    }
    f.require(false, "unknown dsm op");
  }
};

// The request as its service receives it. Page images travel by reference
// (Encoder::image).
inline Message encodeRequest(const Request& r) { return codec::encode(r).message(); }

// bad_argument for a request cut short or a byte that names no op. Which
// service serves the op is the receiver's check.
inline Result<Request> decodeRequest(const Message& message) {
  return codec::decode<Request>(message);
}

// ---------------------------------------------------------------- patience

// The name a failed reply of this op reports (decodeReply). It reaches the
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

// A page grant flowing data server -> client. The image is the store's,
// by reference; a zero-fill grant carries none.
struct PageGrant {
  std::uint64_t version = 0;
  bool zero_fill = false;  // true: no bytes follow; client zero-fills
  SharedBytes data{};

  template <typename G, typename F>
  static void fields(G& g, F& f) {
    f(g.version);
    f(g.zero_fill);
    if (!g.zero_fill) f(g.data);
  }
};

// The reply to one request: its status, then, when ok, the op's result.
struct Reply {
  Op op{};  // the request's; not on the wire
  Errc status = Errc::ok;
  PageGrant grant{};         // read_page, write_page
  Sysname segment{};         // create_segment: the new segment
  ra::SegmentInfo info{};    // stat_segment
  std::uint64_t sem = 0;     // sem_create: the new semaphore's id
  bool dirty = false;        // invalidate, degrade: the holder's copy was dirty
  SharedBytes image{};       // invalidate, degrade when dirty: that copy

  template <typename R, typename F>
  static void fields(R& r, F& f) {
    f(r.status);
    if (r.status != Errc::ok) return;
    switch (r.op) {
      case Op::read_page:
      case Op::write_page:
        f(r.grant);
        return;
      case Op::create_segment:
        f(r.segment);
        return;
      case Op::stat_segment:
        f(r.info.name);
        f(r.info.length);
        f(r.info.zero_fill);
        return;
      case Op::sem_create:
        f(r.sem);
        return;
      case Op::invalidate:
      case Op::degrade:
        f(r.dirty);
        if (r.dirty) f(r.image);
        return;
      default:
        return;  // the status is the whole reply
    }
  }
};

// The reply to a request of `op`; a failed status is the error, reported as
// opName(op) "failed remotely".
inline Result<Reply> decodeReply(Op op, const Message& message) {
  return codec::decodeReply(message, Reply{.op = op}, [op](const Reply&) {
    return std::string(opName(op)) + " failed remotely";
  });
}

}  // namespace clouds::dsm

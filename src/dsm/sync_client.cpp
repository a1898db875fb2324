#include "dsm/sync_client.hpp"

namespace clouds::dsm {

namespace {
// Lock and semaphore waits block server-side, so the per-attempt timeout
// must exceed the server's own wait bound. Retransmitted requests are
// deduplicated by RaTP's reply cache (the handler keeps waiting; it is
// never re-executed), so retries only guard against lost frames.
constexpr net::RatpOptions kLockCall{sim::msec(600), 3};
constexpr net::RatpOptions kSemCall{sim::sec(2), 45};  // ~90 s total patience for a P()
}  // namespace

Result<void> SyncClient::lock(sim::Process& self, const Sysname& segment, LockMode mode,
                              std::uint64_t owner) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(Op::lock));
  e.sysname(segment);
  e.u8(static_cast<std::uint8_t>(mode));
  e.u64(owner);
  CLOUDS_TRY_ASSIGN(reply,
                    dsm_.exchange(self, ra::sysnameHome(segment), std::move(e).take(), kLockCall));
  Decoder d(reply);
  return decodeStatus(d, "lock");
}

Result<void> SyncClient::unlockAll(sim::Process& self, net::NodeId server, std::uint64_t owner) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(Op::unlock_all));
  e.u64(owner);
  CLOUDS_TRY_ASSIGN(reply, dsm_.exchange(self, server, std::move(e).take(), kLockCall));
  Decoder d(reply);
  return decodeStatus(d, "unlock_all");
}

Result<std::uint64_t> SyncClient::semCreate(sim::Process& self, net::NodeId server,
                                            std::int64_t initial) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(Op::sem_create));
  e.i64(initial);
  CLOUDS_TRY_ASSIGN(reply, dsm_.exchange(self, server, std::move(e).take(), kLockCall));
  Decoder d(reply);
  CLOUDS_TRY(decodeStatus(d, "sem_create"));
  return d.u64();
}

Result<void> SyncClient::semP(sim::Process& self, std::uint64_t sem) {
  const auto server = static_cast<net::NodeId>(sem >> 32);
  Encoder e;
  e.u8(static_cast<std::uint8_t>(Op::sem_p));
  e.u64(sem);
  CLOUDS_TRY_ASSIGN(reply, dsm_.exchange(self, server, std::move(e).take(), kSemCall));
  Decoder d(reply);
  return decodeStatus(d, "sem_p");
}

Result<void> SyncClient::semV(sim::Process& self, std::uint64_t sem) {
  const auto server = static_cast<net::NodeId>(sem >> 32);
  Encoder e;
  e.u8(static_cast<std::uint8_t>(Op::sem_v));
  e.u64(sem);
  CLOUDS_TRY_ASSIGN(reply, dsm_.exchange(self, server, std::move(e).take(), kSemCall));
  Decoder d(reply);
  return decodeStatus(d, "sem_v");
}

Result<void> SyncClient::prepare(sim::Process& self, net::NodeId server, std::uint64_t txid,
                                 const std::vector<store::PageUpdate>& updates) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(Op::tx_prepare));
  e.u64(txid);
  store::encodePageUpdates(e, updates);
  CLOUDS_TRY_ASSIGN(reply, dsm_.exchange(self, server, std::move(e).take()));
  Decoder d(reply);
  return decodeStatus(d, "tx_prepare");
}

Result<void> SyncClient::decide(sim::Process& self, net::NodeId server, std::uint64_t txid,
                                bool commit) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(commit ? Op::tx_commit : Op::tx_abort));
  e.u64(txid);
  // A commit decision must survive a participant's crash+reboot window:
  // retransmit for ~1 s so the retried (idempotent) decision lands on the
  // rebooted server's durable prepared log. Aborts are best-effort — an
  // undelivered abort is mopped up by lease expiry and the in-doubt scan.
  net::RatpOptions opts;
  opts.max_retries = commit ? dsm_.node().cost().txn_decision_retries
                            : dsm_.node().cost().txn_cleanup_retries;
  CLOUDS_TRY_ASSIGN(reply, dsm_.exchange(self, server, std::move(e).take(), opts));
  Decoder d(reply);
  return decodeStatus(d, commit ? "tx_commit" : "tx_abort");
}

}  // namespace clouds::dsm

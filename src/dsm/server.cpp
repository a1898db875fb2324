#include "dsm/server.hpp"

#include <algorithm>

#include "dsm/client.hpp"

namespace clouds::dsm {

namespace {
// Upper bound on a semaphore P wait at the server; the client's transaction
// timeout governs the effective user-visible bound.
constexpr sim::Duration kSemWaitCap = sim::sec(60);
}  // namespace

DsmServer::DsmServer(ra::Node& node, store::DiskStore& store) : node_(node), store_(store) {
  sim::MetricsRegistry& metrics = node_.simulation().metrics();
  m_invalidations_ = &metrics.counter(node_.name() + "/dsm/invalidations");
  m_degrades_ = &metrics.counter(node_.name() + "/dsm/degrades");
  m_page_reads_ = &metrics.counter(node_.name() + "/dsm/page_reads");
  m_page_writes_ = &metrics.counter(node_.name() + "/dsm/page_writes");
  m_write_backs_ = &metrics.counter(node_.name() + "/dsm/write_backs_received");
  m_tx_prepares_ = &metrics.counter(node_.name() + "/dsm/tx_prepares");
  m_tx_commits_ = &metrics.counter(node_.name() + "/dsm/tx_commits");
  m_tx_aborts_ = &metrics.counter(node_.name() + "/dsm/tx_aborts");
  m_client_cleanups_ = &metrics.counter(node_.name() + "/dsm/client_crash_cleanups");
  m_locks_reclaimed_ = &metrics.counter(node_.name() + "/dsm/locks_reclaimed");
  m_wb_adoptions_ = &metrics.counter(node_.name() + "/dsm/writeback_adoptions");
  m_indoubt_ = &metrics.counter(node_.name() + "/dsm/indoubt_at_reboot");
  node_.ratp().bindService(net::kPortDsm,
                           [this](sim::Process& self, net::NodeId client, const Bytes& req) {
                             return serveDsm(self, client, req);
                           });
  node_.onCrashHook([this] {
    loseVolatileState();
    store_.loseVolatileState();
  });
  node_.onRestartHook([this] {
    if (store_.engine() == store::StoreEngine::wal) {
      // Replay the surviving log before serving: the store's state is
      // already rebuilt, this charges the disk time a real replay would
      // take (bounded by checkpoint truncation).
      node_.spawnIsiBa("store-recover", [this](sim::Process& p) { (void)store_.recover(p); });
    }
    // In-doubt prepared transactions survive in the durable log. Deciding
    // them here (presumed abort) could discard a committed transaction whose
    // decision is still being retransmitted, so we only surface them: the
    // coordinator's retried tx_commit/tx_abort resolves each one.
    for (std::uint64_t txid : store_.preparedTxids()) {
      ++*m_indoubt_;
      node_.simulation().trace(node_.name(), "dsm",
                               "in-doubt prepared txn " + std::to_string(txid & 0xffffffff) +
                                   " awaiting coordinator decision");
    }
  });
}

void DsmServer::loseVolatileState() {
  // Service handlers killed by the endpoint's crash hook unwind *lazily* (at
  // their next resume), and their lock guards / wait-queue nodes point into
  // these maps. Entries must therefore be reset in place, never destroyed: a
  // reset entry is indistinguishable from a fresh one (directory_[key] and
  // locks_[seg] default-construct on demand), and the embedded mutexes and
  // queues stay alive for the unwinding holders to release.
  for (auto& [key, e] : directory_) e.reset();
  for (auto& [seg, l] : locks_) {
    l.readers.clear();
    l.writer = 0;
    l.upgrade_waiter = 0;
    l.upgrade_since = sim::kZero;
    l.granted_at.clear();
  }
  // Semaphore ids do carry presence semantics (P/V on an unknown id is
  // not_found), so dead ones are tombstoned rather than reused.
  for (auto& [id, s] : semaphores_) {
    s.count = 0;
    s.live = false;
  }
}

void DsmServer::onClientCrash(net::NodeId client) {
  ++*m_client_cleanups_;
  node_.simulation().trace(node_.name(), "dsm",
                           "client " + std::to_string(client) + " crashed: purging its state");
  for (auto& [key, e] : directory_) {
    if (e.state == PState::exclusive && e.owner == client) {
      // The crashed owner's dirty frame died with it; the durable image is
      // now the authoritative copy.
      e.state = PState::uncached;
      e.owner = net::kNoNode;
      e.copyset.clear();
      ++e.version;
    } else if (e.copyset.erase(client) > 0 && e.copyset.empty() &&
               e.state == PState::shared) {
      e.state = PState::uncached;
    }
  }
  std::uint64_t reclaimed = 0;
  for (auto& [seg, l] : locks_) {
    bool changed = false;
    if (l.writer != 0 && (l.writer >> 32) == client) {
      l.writer = 0;
      changed = true;
      ++reclaimed;
    }
    for (auto it = l.readers.begin(); it != l.readers.end();) {
      if ((*it >> 32) == client) {
        it = l.readers.erase(it);
        changed = true;
        ++reclaimed;
      } else {
        ++it;
      }
    }
    if (l.upgrade_waiter != 0 && (l.upgrade_waiter >> 32) == client) l.upgrade_waiter = 0;
    for (auto it = l.granted_at.begin(); it != l.granted_at.end();) {
      it = (it->first >> 32) == client ? l.granted_at.erase(it) : std::next(it);
    }
    if (changed) l.queue.notifyAll();
  }
  *m_locks_reclaimed_ += reclaimed;
  if (reclaimed > 0) {
    node_.simulation().trace(node_.name(), "lock",
                             "reclaimed " + std::to_string(reclaimed) + " locks of client " +
                                 std::to_string(client));
  }
}

// ---------------------------------------------------------------- coherence

Result<Bytes> DsmServer::callback(sim::Process& self, net::NodeId holder, Op op,
                                  const ra::PageKey& key, std::uint64_t version) {
  ++*(op == Op::invalidate ? m_invalidations_ : m_degrades_);
  Encoder e;
  e.u8(static_cast<std::uint8_t>(op));
  encodePageKey(e, key);
  e.u64(version);
  Bytes reply;
  if (holder == node_.id() && local_client_ != nullptr) {
    node_.cpu().compute(self, node_.cost().syscall);
    reply = local_client_->serveCallback(std::move(e).take());
  } else {
    // Callbacks give up well before a waiting fault does, so a dead holder
    // is declared lost while the faulting client is still patient.
    net::RatpOptions opts;
    opts.max_retries = node_.cost().dsm_callback_retries;
    auto r =
        node_.ratp().transact(self, holder, net::kPortDsmCallback, std::move(e).take(), opts);
    if (!r.ok()) {
      // Holder dead or partitioned: its copy is considered lost (its dirty
      // data, if any, dies with it — standard s-thread crash semantics).
      node_.simulation().trace(node_.name(), "dsm",
                               "callback to node " + std::to_string(holder) +
                                   " failed: copy lost");
      return Bytes{};
    }
    reply = std::move(r).value();
  }
  Decoder d(reply);
  CLOUDS_TRY(decodeStatus(d, "dsm callback"));
  CLOUDS_TRY_ASSIGN(dirty, d.boolean());
  if (!dirty) return Bytes{};
  CLOUDS_TRY_ASSIGN(data, d.bytes());
  return data;
}

Result<PageGrant> DsmServer::loadGrant(sim::Process& self, const ra::PageKey& key,
                                       std::uint64_t version) {
  PageGrant g;
  g.version = version;
  Bytes page(ra::kPageSize);
  CLOUDS_TRY_ASSIGN(written, store_.readPage(self, key, page));
  g.zero_fill = !written;
  if (written) g.data = std::move(page);
  return g;
}

Result<PageGrant> DsmServer::handleRead(sim::Process& self, net::NodeId client,
                                        const ra::PageKey& key) {
  ++*m_page_reads_;
  DirEntry& e = directory_[key];
  // A holder may answer `busy`: its dirty copy is pinned by an open
  // transaction and surrendering it would publish uncommitted bytes. Retry
  // with the directory entry unlocked — the pin is released by the very
  // commit/abort path that needs this entry's mutex. A holder still busy
  // after the full patience is treated like a dead one (copy lost).
  for (int attempt = 0;; ++attempt) {
    {
      sim::SimLockGuard guard(e.mu, self);
      node_.cpu().compute(self, node_.cost().dsm_server_lookup);
      const std::uint64_t v = ++e.version;
      bool deferred = false;
      if (e.state == PState::exclusive) {
        if (e.owner == client) {
          // The owner lost its frame (eviction or abort-drop): directory heals.
          e.state = PState::uncached;
          e.owner = net::kNoNode;
          e.copyset.clear();
        } else {
          auto dirty = callback(self, e.owner, Op::degrade, key, v);
          if (!dirty.ok() && dirty.error().code == Errc::busy) {
            if (attempt < node_.cost().dsm_callback_retries) {
              deferred = true;
            } else {
              node_.simulation().trace(node_.name(), "dsm",
                                       "holder of " + key.toString() +
                                           " busy past patience: copy lost");
              dirty = Bytes{};
            }
          }
          if (!deferred) {
            CLOUDS_TRY_ASSIGN(data, std::move(dirty));
            if (!data.empty()) CLOUDS_TRY(store_.writePage(self, key, data));
            e.copyset = {e.owner};
            e.owner = net::kNoNode;
            e.state = PState::shared;
          }
        }
      }
      if (!deferred) {
        e.copyset.insert(client);
        e.state = PState::shared;
        return loadGrant(self, key, v);
      }
    }
    self.delay(node_.cost().ratp_retransmit_timeout);
  }
}

Result<PageGrant> DsmServer::handleWrite(sim::Process& self, net::NodeId client,
                                         const ra::PageKey& key) {
  ++*m_page_writes_;
  DirEntry& e = directory_[key];
  for (int attempt = 0;; ++attempt) {
    {
      sim::SimLockGuard guard(e.mu, self);
      node_.cpu().compute(self, node_.cost().dsm_server_lookup);
      const std::uint64_t v = ++e.version;
      bool deferred = false;
      if (e.state == PState::exclusive && e.owner != client) {
        auto dirty = callback(self, e.owner, Op::invalidate, key, v);
        if (!dirty.ok() && dirty.error().code == Errc::busy) {
          if (attempt < node_.cost().dsm_callback_retries) {
            deferred = true;
          } else {
            node_.simulation().trace(node_.name(), "dsm",
                                     "holder of " + key.toString() +
                                         " busy past patience: copy lost");
            dirty = Bytes{};
          }
        }
        if (!deferred) {
          CLOUDS_TRY_ASSIGN(data, std::move(dirty));
          if (!data.empty()) CLOUDS_TRY(store_.writePage(self, key, data));
        }
      } else if (e.state == PState::shared) {
        for (net::NodeId holder : e.copyset) {
          if (holder == client) continue;
          // Shared copies are never dirty, so these can't come back busy.
          CLOUDS_TRY_ASSIGN(dirty, callback(self, holder, Op::invalidate, key, v));
          if (!dirty.empty()) CLOUDS_TRY(store_.writePage(self, key, dirty));
        }
      }
      if (!deferred) {
        e.copyset.clear();
        e.state = PState::exclusive;
        e.owner = client;
        return loadGrant(self, key, v);
      }
    }
    self.delay(node_.cost().ratp_retransmit_timeout);
  }
}

Result<void> DsmServer::handleWriteBackBatch(sim::Process& self, net::NodeId client,
                                             const std::vector<store::PageUpdate>& updates,
                                             bool drop) {
  *m_write_backs_ += updates.size();
  if (updates.empty()) return okResult();
  // Hold every page's directory mutex for the span of the batch, acquired in
  // key order (the client collects from an ordered map; other handlers only
  // ever hold one entry at a time), released in reverse by RAII.
  std::vector<DirEntry*> entries;
  entries.reserve(updates.size());
  for (const auto& u : updates) entries.push_back(&directory_[u.key]);
  for (DirEntry* e : entries) e->mu.lock(self);
  struct UnlockAll {
    std::vector<DirEntry*>& entries;
    ~UnlockAll() {
      for (auto it = entries.rbegin(); it != entries.rend(); ++it) (*it)->mu.unlock();
    }
  } unlock{entries};
  node_.cpu().compute(self, node_.cost().dsm_server_lookup);
  // Decide acceptance per page under the locks, then push the accepted set
  // through one store write.
  std::vector<store::PageUpdate> accepted;
  std::vector<std::size_t> accepted_idx;
  std::vector<bool> accepted_adoption;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    DirEntry& e = *entries[i];
    const bool owned = e.state == PState::exclusive && e.owner == client;
    const bool adoption = !owned && e.state == PState::uncached && e.version == 0;
    if (!owned && !adoption) continue;  // stale: a callback already collected it
    if (adoption) {
      // Fresh directory entry: this server rebooted while the client still
      // held the page exclusive, and the write-back outlived the crash.
      // Adopt it. Safe gate: every pre-crash grant left version >= 1, so a
      // stale in-flight write-back racing a commit's invalidation can never
      // match here.
      ++*m_wb_adoptions_;
      ++e.version;
    }
    // Existence pre-filter: store::writePages is all-or-nothing, so a page
    // of a segment destroyed or shrunk meanwhile must not poison the batch.
    auto info = store_.stat(updates[i].key.segment);
    if (!info.ok() || updates[i].key.page >= info.value().pageCount()) continue;
    accepted.push_back(updates[i]);
    accepted_idx.push_back(i);
    accepted_adoption.push_back(adoption);
  }
  if (!accepted.empty()) CLOUDS_TRY(store_.writePages(self, accepted));
  for (std::size_t a = 0; a < accepted_idx.size(); ++a) {
    DirEntry& e = *entries[accepted_idx[a]];
    if (accepted_adoption[a]) {
      if (!drop) {
        e.state = PState::shared;
        e.copyset = {client};
      }
      continue;
    }
    ++e.version;
    if (drop) {
      e.state = PState::uncached;
      e.owner = net::kNoNode;
      e.copyset.clear();
    } else {
      e.state = PState::shared;
      e.copyset = {client};
      e.owner = net::kNoNode;
    }
  }
  return okResult();
}

// ---------------------------------------------------------------- segments

Result<Sysname> DsmServer::handleCreate(sim::Process& self, std::uint64_t length,
                                        bool zero_fill) {
  node_.cpu().compute(self, node_.cost().dsm_server_lookup);
  return store_.createSegment(length, zero_fill);
}

Result<ra::SegmentInfo> DsmServer::handleStat(sim::Process& self, const Sysname& name) {
  node_.cpu().compute(self, node_.cost().dsm_server_lookup);
  return store_.stat(name);
}

Result<void> DsmServer::handleDestroy(sim::Process& self, const Sysname& name) {
  node_.cpu().compute(self, node_.cost().dsm_server_lookup);
  // Drop directory state; cached copies elsewhere die on their own (any
  // later fault fails with not_found). Reset, not erased: a write-back batch
  // waiting for one page's mutex, or a read inside a callback or retrying
  // after `busy`, still holds its entries.
  for (auto& [key, e] : ra::segmentRange(directory_, name)) e.reset();
  return store_.destroySegment(name);
}

// ---------------------------------------------------------------- locks

Result<void> DsmServer::handleLock(sim::Process& self, const Sysname& segment, LockMode mode,
                                   std::uint64_t owner) {
  node_.cpu().compute(self, node_.cost().lock_service);
  LockEntry& l = locks_[segment];
  const sim::TimePoint deadline = node_.simulation().now() + node_.cost().lock_wait_timeout;
  for (;;) {
    // Expire leases of holders that died without unlocking.
    const sim::TimePoint expiry_cutoff = node_.simulation().now() - node_.cost().lock_lease_ttl;
    for (auto it = l.granted_at.begin(); it != l.granted_at.end();) {
      if (it->second <= expiry_cutoff) {
        if (l.writer == it->first) l.writer = 0;
        l.readers.erase(it->first);
        node_.simulation().trace(node_.name(), "lock",
                                 "lease of owner " + std::to_string(it->first) + " on " +
                                     segment.toString() + " expired");
        it = l.granted_at.erase(it);
      } else {
        ++it;
      }
    }
    // A stranded upgrade slot (its worker died) expires like a lease.
    if (l.upgrade_waiter != 0 &&
        node_.simulation().now() - l.upgrade_since > 2 * node_.cost().lock_wait_timeout) {
      l.upgrade_waiter = 0;
    }
    const bool held_shared = l.readers.count(owner) != 0;
    if (mode == LockMode::shared) {
      // New shared admissions yield to a pending upgrade (else it starves).
      const bool upgrade_blocks =
          l.upgrade_waiter != 0 && l.upgrade_waiter != owner && !held_shared;
      if ((l.writer == 0 || l.writer == owner) && !upgrade_blocks) {
        l.readers.insert(owner);
        l.granted_at[owner] = node_.simulation().now();
        return okResult();
      }
    } else {
      if (l.upgrade_waiter != 0 && l.upgrade_waiter != owner && held_shared) {
        // Two readers racing to upgrade: deadlock by construction. Wound
        // this one immediately; its abort releases the shared hold and the
        // slot holder proceeds.
        return makeError(Errc::deadlock,
                         "upgrade conflict on " + segment.toString() + " (wounded)");
      }
      const bool no_other_readers =
          l.readers.empty() || (l.readers.size() == 1 && held_shared);
      if ((l.writer == 0 || l.writer == owner) && no_other_readers) {
        if (l.upgrade_waiter == owner) l.upgrade_waiter = 0;
        l.writer = owner;
        l.readers.erase(owner);  // upgrade folds the shared hold
        l.granted_at[owner] = node_.simulation().now();
        return okResult();
      }
      if (held_shared && l.upgrade_waiter == 0) {
        l.upgrade_waiter = owner;  // claim the upgrade slot and wait
        l.upgrade_since = node_.simulation().now();
      }
    }
    const sim::Duration remaining = deadline - node_.simulation().now();
    if (remaining <= sim::kZero || !l.queue.waitFor(self, remaining)) {
      if (node_.simulation().now() >= deadline) {
        if (l.upgrade_waiter == owner) l.upgrade_waiter = 0;
        // Deadlock-avoidance policy: bounded wait, then the requester
        // aborts and retries (paper-era wound/wait stand-in).
        return makeError(Errc::deadlock, "lock wait timed out on " + segment.toString());
      }
    }
  }
}

Result<void> DsmServer::handleUnlockAll(sim::Process& self, std::uint64_t owner) {
  node_.cpu().compute(self, node_.cost().lock_service);
  for (auto& [seg, l] : locks_) {
    bool changed = false;
    if (l.writer == owner) {
      l.writer = 0;
      changed = true;
    }
    changed |= l.readers.erase(owner) > 0;
    l.granted_at.erase(owner);
    if (changed) l.queue.notifyAll();
  }
  return okResult();
}

// ---------------------------------------------------------------- semaphores

Result<std::uint64_t> DsmServer::handleSemCreate(sim::Process& self, std::int64_t initial) {
  node_.cpu().compute(self, node_.cost().lock_service);
  const std::uint64_t id = (static_cast<std::uint64_t>(node_.id()) << 32) | next_sem_++;
  semaphores_[id].count = initial;
  return id;
}

Result<void> DsmServer::handleSemP(sim::Process& self, std::uint64_t sem) {
  node_.cpu().compute(self, node_.cost().lock_service);
  auto it = semaphores_.find(sem);
  if (it == semaphores_.end() || !it->second.live)
    return makeError(Errc::not_found, "no such semaphore");
  SemEntry& s = it->second;
  const sim::TimePoint deadline = node_.simulation().now() + kSemWaitCap;
  while (s.count <= 0) {
    const sim::Duration remaining = deadline - node_.simulation().now();
    if (remaining <= sim::kZero) return makeError(Errc::timeout, "semaphore P wait capped");
    (void)s.queue.waitFor(self, remaining);
  }
  --s.count;
  return okResult();
}

Result<void> DsmServer::handleSemV(sim::Process& self, std::uint64_t sem) {
  node_.cpu().compute(self, node_.cost().lock_service);
  auto it = semaphores_.find(sem);
  if (it == semaphores_.end() || !it->second.live)
    return makeError(Errc::not_found, "no such semaphore");
  ++it->second.count;
  it->second.queue.notifyOne();
  return okResult();
}

// ---------------------------------------------------------------- 2PC

Result<void> DsmServer::handlePrepare(sim::Process& self, std::uint64_t txid,
                                      std::vector<store::PageUpdate> updates) {
  ++*m_tx_prepares_;
  node_.cpu().compute(self, node_.cost().dsm_server_lookup);
  return store_.prepare(self, txid, std::move(updates));
}

Result<void> DsmServer::handleCommit(sim::Process& self, net::NodeId committer,
                                     std::uint64_t txid) {
  ++*m_tx_commits_;
  node_.cpu().compute(self, node_.cost().dsm_server_lookup);
  const std::vector<ra::PageKey> pages = store_.preparedKeys(txid);
  CLOUDS_TRY(store_.commitPrepared(self, txid));
  // Coherence: the committed images supersede every cached copy except the
  // committing client's own exclusive frames (which hold the same bytes).
  for (const ra::PageKey& key : pages) {
    DirEntry& e = directory_[key];
    sim::SimLockGuard guard(e.mu, self);
    const std::uint64_t v = ++e.version;
    if (e.state == PState::exclusive && e.owner != committer) {
      (void)callback(self, e.owner, Op::invalidate, key, v);  // dirty losers discarded
      e.state = PState::uncached;
      e.owner = net::kNoNode;
    } else if (e.state == PState::shared) {
      for (net::NodeId holder : e.copyset) {
        if (holder == committer) continue;
        (void)callback(self, holder, Op::invalidate, key, v);
      }
      const bool committer_had_copy = e.copyset.count(committer) != 0;
      e.copyset.clear();
      if (committer_had_copy) {
        e.copyset.insert(committer);
      } else {
        e.state = PState::uncached;
      }
    }
  }
  return okResult();
}

Result<void> DsmServer::handleAbort(sim::Process& self, std::uint64_t txid) {
  ++*m_tx_aborts_;
  node_.cpu().compute(self, node_.cost().dsm_server_lookup);
  return store_.abortPrepared(self, txid);
}

// ---------------------------------------------------------------- services

Bytes DsmServer::serveDsm(sim::Process& self, net::NodeId client, const Bytes& request) {
  Decoder d(request);
  Encoder reply;
  auto op = d.u8();
  if (!op.ok()) {
    encodeStatus(reply, Errc::bad_argument);
    return std::move(reply).take();
  }
  switch (static_cast<Op>(op.value())) {
    case Op::read_page:
    case Op::write_page: {
      auto key = decodePageKey(d);
      if (!key.ok()) {
        encodeStatus(reply, Errc::bad_argument);
        break;
      }
      auto grant = static_cast<Op>(op.value()) == Op::read_page
                       ? handleRead(self, client, key.value())
                       : handleWrite(self, client, key.value());
      if (!grant.ok()) {
        encodeStatus(reply, grant.error().code);
        break;
      }
      encodeStatus(reply, Errc::ok);
      encodeGrant(reply, grant.value());
      break;
    }
    case Op::write_back_batch: {
      auto drop = d.boolean();
      auto updates = store::decodePageUpdates(d);
      if (!drop.ok() || !updates.ok()) {
        encodeStatus(reply, Errc::bad_argument);
        break;
      }
      encodeStatus(reply, handleWriteBackBatch(self, client, updates.value(), drop.value()).code());
      break;
    }
    case Op::create_segment: {
      auto length = d.u64();
      auto zf = d.boolean();
      if (!length.ok() || !zf.ok()) {
        encodeStatus(reply, Errc::bad_argument);
        break;
      }
      auto r = handleCreate(self, length.value(), zf.value());
      encodeStatus(reply, r.code());
      if (r.ok()) reply.sysname(r.value());
      break;
    }
    case Op::stat_segment: {
      auto name = d.sysname();
      if (!name.ok()) {
        encodeStatus(reply, Errc::bad_argument);
        break;
      }
      auto r = handleStat(self, name.value());
      encodeStatus(reply, r.code());
      if (r.ok()) {
        reply.sysname(r.value().name);
        reply.u64(r.value().length);
        reply.boolean(r.value().zero_fill);
      }
      break;
    }
    case Op::destroy_segment: {
      auto name = d.sysname();
      if (!name.ok()) {
        encodeStatus(reply, Errc::bad_argument);
        break;
      }
      encodeStatus(reply, handleDestroy(self, name.value()).code());
      break;
    }
    case Op::lock: {
      auto seg = d.sysname();
      auto mode = d.u8();
      auto owner = d.u64();
      if (!seg.ok() || !mode.ok() || !owner.ok()) {
        encodeStatus(reply, Errc::bad_argument);
        break;
      }
      encodeStatus(reply, handleLock(self, seg.value(), static_cast<LockMode>(mode.value()),
                                     owner.value())
                              .code());
      break;
    }
    case Op::unlock_all: {
      auto owner = d.u64();
      if (!owner.ok()) {
        encodeStatus(reply, Errc::bad_argument);
        break;
      }
      encodeStatus(reply, handleUnlockAll(self, owner.value()).code());
      break;
    }
    case Op::sem_create: {
      auto init = d.i64();
      if (!init.ok()) {
        encodeStatus(reply, Errc::bad_argument);
        break;
      }
      auto r = handleSemCreate(self, init.value());
      encodeStatus(reply, r.code());
      if (r.ok()) reply.u64(r.value());
      break;
    }
    case Op::sem_p:
    case Op::sem_v: {
      auto sem = d.u64();
      if (!sem.ok()) {
        encodeStatus(reply, Errc::bad_argument);
        break;
      }
      auto r = static_cast<Op>(op.value()) == Op::sem_p ? handleSemP(self, sem.value())
                                                         : handleSemV(self, sem.value());
      encodeStatus(reply, r.code());
      break;
    }
    case Op::tx_prepare: {
      auto txid = d.u64();
      auto updates = store::decodePageUpdates(d);
      if (!txid.ok() || !updates.ok()) {
        encodeStatus(reply, Errc::bad_argument);
        break;
      }
      encodeStatus(reply, handlePrepare(self, txid.value(), std::move(updates).value()).code());
      break;
    }
    case Op::tx_commit:
    case Op::tx_abort: {
      auto txid = d.u64();
      if (!txid.ok()) {
        encodeStatus(reply, Errc::bad_argument);
        break;
      }
      auto r = static_cast<Op>(op.value()) == Op::tx_commit
                   ? handleCommit(self, client, txid.value())
                   : handleAbort(self, txid.value());
      encodeStatus(reply, r.code());
      break;
    }
    default:
      encodeStatus(reply, Errc::bad_argument);
  }
  return std::move(reply).take();
}

}  // namespace clouds::dsm

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
                           [this](sim::Process& self, net::NodeId client, const Message& req) {
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

Result<SharedBytes> DsmServer::callback(sim::Process& self, net::NodeId holder, Op op,
                                        const ra::PageKey& key, std::uint64_t version) {
  ++*(op == Op::invalidate ? m_invalidations_ : m_degrades_);
  Message request = encodeRequest({.op = op, .key = key, .version = version});
  Message reply;
  if (holder == node_.id() && local_client_ != nullptr) {
    node_.cpu().compute(self, node_.cost().syscall);
    reply = local_client_->serveCallback(request);
  } else {
    auto r = node_.ratp().transact(self, holder, net::kPortDsmCallback, std::move(request),
                                   patience(op, node_.cost()));
    if (!r.ok()) {
      // Holder dead or partitioned: its copy is considered lost (its dirty
      // data, if any, dies with it — standard s-thread crash semantics).
      node_.simulation().trace(node_.name(), "dsm",
                               "callback to node " + std::to_string(holder) +
                                   " failed: copy lost");
      return SharedBytes();
    }
    reply = std::move(r).value();
  }
  CLOUDS_TRY_ASSIGN(surrender, decodeReply(op, reply));
  return std::move(surrender.image);
}

Result<PageGrant> DsmServer::handlePage(sim::Process& self, net::NodeId client,
                                        const ra::PageKey& key, ra::Access access) {
  const bool write = access == ra::Access::write;
  ++*(write ? m_page_writes_ : m_page_reads_);
  DirEntry& e = directory_[key];
  // The recall loop. An exclusive owner may answer `busy`: its dirty copy
  // is pinned by an open transaction and surrendering it would publish
  // uncommitted bytes. Retry with the directory entry unlocked — the pin is
  // released by the very commit/abort path that needs this entry's mutex.
  // An owner still busy after the full patience is treated like a dead one
  // (copy lost).
  for (int attempt = 0;; ++attempt) {
    {
      sim::SimLockGuard guard(e.mu, self);
      node_.cpu().compute(self, node_.cost().dsm_server_lookup);
      const std::uint64_t v = ++e.version;
      if (e.state != PState::exclusive || e.owner == client) {
        return grantPage(self, e, client, key, v, write);
      }
      auto dirty = callback(self, e.owner, write ? Op::invalidate : Op::degrade, key, v);
      const bool busy = !dirty.ok() && dirty.error().code == Errc::busy;
      if (!busy || attempt >= node_.cost().dsm_callback_retries) {
        if (busy) {
          node_.simulation().trace(node_.name(), "dsm",
                                   "holder of " + key.toString() +
                                       " busy past patience: copy lost");
        } else {
          CLOUDS_TRY_ASSIGN(data, std::move(dirty));
          if (!data.empty()) CLOUDS_TRY(store_.writePage(self, key, std::move(data)));
        }
        return grantPage(self, e, client, key, v, write);
      }
    }
    self.delay(node_.cost().ratp_retransmit_timeout);
  }
}

Result<PageGrant> DsmServer::grantPage(sim::Process& self, DirEntry& e, net::NodeId client,
                                       const ra::PageKey& key, std::uint64_t version,
                                       bool write) {
  if (write) {
    if (e.state == PState::shared) {
      CLOUDS_TRY(invalidateSharers(self, e, client, key, version, /*write_back=*/true));
    }
    e.copyset.clear();
    e.state = PState::exclusive;
    e.owner = client;
  } else {
    if (e.state == PState::exclusive) {
      // The degraded owner keeps a shared copy — unless the owner is the
      // client itself, which lost its frame (eviction or abort-drop): the
      // directory heals.
      e.copyset.clear();
      if (e.owner != client) e.copyset.insert(e.owner);
      e.owner = net::kNoNode;
    }
    e.copyset.insert(client);
    e.state = PState::shared;
  }
  PageGrant g;
  g.version = version;
  CLOUDS_TRY_ASSIGN(image, store_.readPage(self, key));
  g.zero_fill = image.empty();
  g.data = std::move(image);
  return g;
}

Result<void> DsmServer::invalidateSharers(sim::Process& self, DirEntry& e, net::NodeId keep,
                                          const ra::PageKey& key, std::uint64_t version,
                                          bool write_back) {
  // Each callback blocks, and meanwhile a crash notice (onClientCrash) may
  // erase a holder, or a destroy (handleDestroy) clear the set, without the
  // entry's mutex: walk a copy, and skip who has left the live set.
  const std::set<net::NodeId> holders = e.copyset;
  for (net::NodeId holder : holders) {
    if (holder == keep || e.copyset.count(holder) == 0) continue;
    auto dirty = callback(self, holder, Op::invalidate, key, version);
    if (!write_back) continue;
    // Shared copies are never dirty, so these can't come back busy.
    CLOUDS_TRY(dirty);
    if (!dirty.value().empty()) CLOUDS_TRY(store_.writePage(self, key, std::move(dirty).value()));
  }
  return okResult();
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
      (void)invalidateSharers(self, e, committer, key, v, /*write_back=*/false);
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

Message DsmServer::serveDsm(sim::Process& self, net::NodeId client, const Message& message) {
  auto request = decodeRequest(message);
  if (!request.ok()) return codec::encode(Reply{.status = Errc::bad_argument}).message();
  Request& r = request.value();
  Reply reply{.op = r.op};
  // The status, and the op's result when there is one.
  auto settle = [&reply]<typename T>(Result<T> result, T& into) {
    reply.status = result.code();
    if (result.ok()) into = std::move(result).value();
  };
  switch (r.op) {
    case Op::read_page:
    case Op::write_page:
      settle(handlePage(self, client, r.key,
                        r.op == Op::read_page ? ra::Access::read : ra::Access::write),
             reply.grant);
      break;
    case Op::write_back_batch:
      reply.status = handleWriteBackBatch(self, client, r.updates, r.drop).code();
      break;
    case Op::create_segment:
      settle(handleCreate(self, r.length, r.zero_fill), reply.segment);
      break;
    case Op::stat_segment:
      settle(handleStat(self, r.segment), reply.info);
      break;
    case Op::destroy_segment:
      reply.status = handleDestroy(self, r.segment).code();
      break;
    case Op::lock:
      reply.status = handleLock(self, r.segment, r.mode, r.owner).code();
      break;
    case Op::unlock_all:
      reply.status = handleUnlockAll(self, r.owner).code();
      break;
    case Op::sem_create:
      settle(handleSemCreate(self, r.initial), reply.sem);
      break;
    case Op::sem_p:
      reply.status = handleSemP(self, r.sem).code();
      break;
    case Op::sem_v:
      reply.status = handleSemV(self, r.sem).code();
      break;
    case Op::tx_prepare:
      reply.status = handlePrepare(self, r.txid, std::move(r.updates)).code();
      break;
    case Op::tx_commit:
      reply.status = handleCommit(self, client, r.txid).code();
      break;
    case Op::tx_abort:
      reply.status = handleAbort(self, r.txid).code();
      break;
    case Op::invalidate:
    case Op::degrade:  // the compute servers' service, not this one
      reply.status = Errc::bad_argument;
      break;
  }
  return codec::encode(reply).message();
}

}  // namespace clouds::dsm

#include "store/disk_store.hpp"

#include <algorithm>

#include "common/codec.hpp"
#include "sim/simulation.hpp"

namespace clouds::store {

DiskStore::DiskStore(std::uint32_t home_node, const sim::CostModel& cost,
                     std::size_t buffer_cache_pages, StoreEngine engine)
    : home_(home_node), cost_(cost), cache_capacity_(buffer_cache_pages), engine_(engine) {
  attachMetrics(own_metrics_, std::to_string(home_node));
}

void DiskStore::attachMetrics(sim::MetricsRegistry& metrics, const std::string& scope) {
  // Re-bind every handle, carrying the counts so far into the new registry.
  auto bind = [&](std::uint64_t*& handle, const char* name) {
    std::uint64_t& counter = metrics.counter(scope + name);
    if (handle != nullptr) counter = *handle;
    handle = &counter;
  };
  bind(m_reads_, "/disk/reads");
  bind(m_writes_, "/disk/writes");
  bind(m_io_errors_, "/disk/io_errors");
  bind(m_cache_hits_, "/store/cache_hits");
  bind(m_cache_misses_, "/store/cache_misses");
  bind(m_cache_evictions_, "/store/cache_evictions");
  bind(m_wal_forces_, "/wal/forces");
  bind(m_wal_records_, "/wal/records_appended");
  bind(m_wal_write_backs_, "/wal/write_backs");
  bind(m_wal_pages_wb_, "/wal/pages_written_back");
  bind(m_wal_checkpoints_, "/wal/checkpoints");
  bind(m_wal_truncated_, "/wal/records_truncated");
  bind(m_wal_replays_, "/wal/replays");
  bind(m_wal_replayed_, "/wal/records_replayed");
}

DiskStore::StoredSegment* DiskStore::find(const Sysname& s) {
  auto it = segments_.find(s);
  return it == segments_.end() ? nullptr : &it->second;
}
const DiskStore::StoredSegment* DiskStore::find(const Sysname& s) const {
  auto it = segments_.find(s);
  return it == segments_.end() ? nullptr : &it->second;
}

// ---- O(1) LRU buffer cache --------------------------------------------

void DiskStore::BufferCache::touch(const ra::PageKey& key) {
  auto it = index.find(key);
  if (it == index.end()) return;
  order.splice(order.end(), order, it->second);
}

bool DiskStore::BufferCache::insert(const ra::PageKey& key, std::size_t capacity) {
  auto it = index.find(key);
  if (it != index.end()) {
    order.splice(order.end(), order, it->second);
    return false;
  }
  order.push_back(key);
  index[key] = std::prev(order.end());
  if (order.size() <= capacity) return false;
  index.erase(order.front());
  order.pop_front();
  return true;
}

void DiskStore::cacheInsert(const ra::PageKey& key) {
  if (cache_.insert(key, cache_capacity_)) ++*m_cache_evictions_;
}

// ---- Segment metadata --------------------------------------------------

Result<Sysname> DiskStore::createSegment(std::uint64_t length, bool zero_fill) {
  const Sysname name = ra::makeHomedSysname(home_, next_seq_++);
  if (!segments_.emplace(name, StoredSegment{ra::SegmentInfo{name, length, zero_fill}, {}})
           .second) {
    return makeError(Errc::already_exists, "segment exists: " + name.toString());
  }
  return name;
}

Result<ra::SegmentInfo> DiskStore::stat(const Sysname& segment) const {
  const StoredSegment* s = find(segment);
  if (s == nullptr) return makeError(Errc::not_found, "no segment " + segment.toString());
  return s->info;
}

Result<void> DiskStore::resize(const Sysname& segment, std::uint64_t new_length) {
  StoredSegment* s = find(segment);
  if (s == nullptr) return makeError(Errc::not_found, "no segment " + segment.toString());
  s->info.length = new_length;
  const auto pages = s->info.pageCount();
  for (auto it = s->pages.begin(); it != s->pages.end();) {
    it = it->first >= pages ? s->pages.erase(it) : std::next(it);
  }
  if (engine_ == StoreEngine::wal) {
    // A shrunk page must not resurrect from the dirty table or from a log
    // replay after the segment grows back.
    dirty_.purgeBeyond(segment, static_cast<ra::PageIndex>(pages));
    scrubLogUpdates(segment, static_cast<ra::PageIndex>(pages));
  }
  return okResult();
}

Result<void> DiskStore::destroySegment(const Sysname& segment) {
  if (segments_.erase(segment) == 0) {
    return makeError(Errc::not_found, "no segment " + segment.toString());
  }
  if (engine_ == StoreEngine::wal) {
    // Drop the committed images: no read can reach them again. Prepare
    // records are intentionally left alone: the flat engine's prepared map
    // also survives a destroy, and the commit then fails against the
    // missing segment in both engines.
    dirty_.purgeSegment(segment);
    scrubLogUpdates(segment, 0);
  }
  return okResult();
}

void DiskStore::scrubLogUpdates(const Sysname& segment, ra::PageIndex page_count) {
  for (wal::Record& r : log_.recordsMutable()) {
    if (r.kind != wal::RecordKind::page_write) continue;
    r.updates.erase(std::remove_if(r.updates.begin(), r.updates.end(),
                                   [&](const PageUpdate& u) {
                                     return u.key.segment == segment && u.key.page >= page_count;
                                   }),
                    r.updates.end());
  }
}

// ---- Disk-time charging ------------------------------------------------

void DiskStore::chargeDiskRead(sim::Process& self, const ra::PageKey& key) {
  if (cache_.contains(key)) {  // buffer-cache hit: no mechanical delay
    cache_.touch(key);
    ++*m_cache_hits_;
    return;
  }
  ++*m_cache_misses_;
  ++*m_reads_;
  sim::SimLockGuard arm(arm_, self);
  self.delay(cost_.disk_seek_rotate + cost_.disk_per_page);
  cacheInsert(key);
}

void DiskStore::chargeDiskWrite(sim::Process& self) {
  ++*m_writes_;
  sim::SimLockGuard arm(arm_, self);
  self.delay(cost_.disk_per_page);  // write-behind: no synchronous seek charge
}

Result<void> DiskStore::diskFault(sim::Process& self, const char* op) {
  ++*m_io_errors_;
  // The failing operation still spins the disk before erroring out.
  sim::SimLockGuard arm(arm_, self);
  self.delay(cost_.disk_seek_rotate);
  return makeError(Errc::io, std::string("disk fault during ") + op);
}

Result<void> DiskStore::validateUpdate(const ra::PageKey& key, std::size_t size) const {
  const StoredSegment* s = find(key.segment);
  if (s == nullptr) return makeError(Errc::not_found, "no segment " + key.segment.toString());
  if (key.page >= s->info.pageCount()) {
    return makeError(Errc::bad_argument, "page out of range: " + key.toString());
  }
  if (size != ra::kPageSize) return makeError(Errc::bad_argument, "bad page size");
  return okResult();
}

// ---- Page I/O ----------------------------------------------------------

Result<SharedBytes> DiskStore::readPage(sim::Process& self, const ra::PageKey& key) {
  const StoredSegment* s = find(key.segment);
  if (s == nullptr) return makeError(Errc::not_found, "no segment " + key.segment.toString());
  if (key.page >= s->info.pageCount()) {
    return makeError(Errc::bad_argument, "page out of range: " + key.toString());
  }
  const wal::DirtyPage* dp =
      engine_ == StoreEngine::wal ? dirty_.find(key) : nullptr;
  auto it = s->pages.find(key.page);
  if (dp == nullptr && it == s->pages.end()) {
    return SharedBytes();  // never written: zero-fill, no disk I/O
  }
  if (faulty_) return diskFault(self, "readPage").error();
  if (dp != nullptr) {
    // Committed but not yet written back: served from the dirty table
    // (read-your-committed-writes), memory-speed like a cache hit.
    ++*m_cache_hits_;
    return dp->data;
  }
  chargeDiskRead(self, key);
  return it->second;
}

Result<void> DiskStore::writePage(sim::Process& self, const ra::PageKey& key, SharedBytes data) {
  if (faulty_) return diskFault(self, "writePage");
  if (engine_ == StoreEngine::flat) return writePageDurable(self, key, std::move(data));
  CLOUDS_TRY(validateUpdate(key, data.size()));
  wal::Record r;
  r.kind = wal::RecordKind::page_write;
  r.updates.push_back(PageUpdate{key, data});
  const std::uint64_t lsn = log_.append(std::move(r));
  ++*m_wal_records_;
  dirty_.stage(key, std::move(data), lsn);
  return forceLog(self, lsn);
}

Result<void> DiskStore::writePages(sim::Process& self, const std::vector<PageUpdate>& updates) {
  if (updates.empty()) return okResult();
  if (engine_ == StoreEngine::flat) {
    for (const PageUpdate& u : updates) CLOUDS_TRY(writePage(self, u.key, u.data));
    return okResult();
  }
  if (faulty_) return diskFault(self, "writePages");
  for (const PageUpdate& u : updates) CLOUDS_TRY(validateUpdate(u.key, u.data.size()));
  wal::Record r;
  r.kind = wal::RecordKind::page_write;
  r.updates = updates;
  const std::uint64_t lsn = log_.append(std::move(r));
  ++*m_wal_records_;
  for (const PageUpdate& u : updates) dirty_.stage(u.key, u.data, lsn);
  return forceLog(self, lsn);
}

// Commit-path page apply: never gated by the fault flag — the decision is
// already in the forced log and must be applicable on retransmit.
Result<void> DiskStore::writePageDurable(sim::Process& self, const ra::PageKey& key,
                                         SharedBytes data) {
  StoredSegment* s = find(key.segment);
  if (s == nullptr) return makeError(Errc::not_found, "no segment " + key.segment.toString());
  if (key.page >= s->info.pageCount()) {
    return makeError(Errc::bad_argument, "page out of range: " + key.toString());
  }
  if (data.size() != ra::kPageSize) return makeError(Errc::bad_argument, "bad page size");
  chargeDiskWrite(self);
  s->pages[key.page] = std::move(data);
  cacheInsert(key);
  return okResult();
}

// ---- Two-phase commit participant --------------------------------------

Result<void> DiskStore::prepare(sim::Process& self, std::uint64_t txid,
                                std::vector<PageUpdate> updates) {
  for (const PageUpdate& u : updates) {
    const StoredSegment* s = find(u.key.segment);
    if (s == nullptr) {
      return makeError(Errc::not_found, "prepare names unknown segment " + u.key.toString());
    }
    if (u.data.size() != ra::kPageSize) {
      return makeError(Errc::bad_argument, "prepare with bad page size");
    }
  }
  if (faulty_) return diskFault(self, "prepare");
  if (engine_ == StoreEngine::flat) {
    // Force the log record (one synchronous write regardless of page count;
    // the page images ride in the same log flush).
    sim::SimLockGuard arm(arm_, self);
    self.delay(cost_.commit_log_write);
    prepared_[txid] = std::move(updates);
    return okResult();
  }
  wal::Record r;
  r.kind = wal::RecordKind::prepare;
  r.txid = txid;
  r.updates = std::move(updates);
  const std::uint64_t lsn = log_.append(std::move(r));
  ++*m_wal_records_;
  prepared_lsn_[txid] = lsn;
  return forceLog(self, lsn);
}

Result<void> DiskStore::commitPrepared(sim::Process& self, std::uint64_t txid) {
  if (engine_ == StoreEngine::flat) {
    auto it = prepared_.find(txid);
    if (it == prepared_.end()) {
      // Presumed idempotent: a retransmitted commit for an applied transaction.
      return okResult();
    }
    {
      sim::SimLockGuard arm(arm_, self);
      self.delay(cost_.commit_log_write);  // force the commit record
    }
    for (const PageUpdate& u : it->second) {
      CLOUDS_TRY(writePageDurable(self, u.key, u.data));
    }
    prepared_.erase(it);
    return okResult();
  }
  auto it = prepared_lsn_.find(txid);
  if (it == prepared_lsn_.end()) return okResult();  // idempotent retransmit
  const wal::Record* prep = log_.findPrepare(txid);
  if (prep == nullptr) {
    prepared_lsn_.erase(it);
    return okResult();
  }
  // Copy the update list (its images are shared, not copied) out of the
  // log: append() below may reallocate the record vector.
  const std::vector<PageUpdate> updates = prep->updates;
  // The segment may have been destroyed or shrunk since prepare; surface the
  // same error the flat engine's commit-time page writes would.
  for (const PageUpdate& u : updates) CLOUDS_TRY(validateUpdate(u.key, u.data.size()));
  wal::Record c;
  c.kind = wal::RecordKind::commit;
  c.txid = txid;
  const std::uint64_t lsn = log_.append(std::move(c));
  ++*m_wal_records_;
  for (const PageUpdate& u : updates) dirty_.stage(u.key, u.data, lsn);
  prepared_lsn_.erase(txid);
  return forceLog(self, lsn);
}

Result<void> DiskStore::abortPrepared(sim::Process& self, std::uint64_t txid) {
  if (engine_ == StoreEngine::flat) {
    sim::SimLockGuard arm(arm_, self);
    self.delay(cost_.commit_log_write);
    prepared_.erase(txid);
    return okResult();
  }
  auto it = prepared_lsn_.find(txid);
  if (it == prepared_lsn_.end()) {
    // Unknown transaction still pays the decision-record write, like flat.
    sim::SimLockGuard arm(arm_, self);
    self.delay(cost_.commit_log_write);
    return okResult();
  }
  wal::Record a;
  a.kind = wal::RecordKind::abort;
  a.txid = txid;
  const std::uint64_t lsn = log_.append(std::move(a));
  ++*m_wal_records_;
  prepared_lsn_.erase(it);
  return forceLog(self, lsn);
}

std::vector<ra::PageKey> DiskStore::preparedKeys(std::uint64_t txid) const {
  std::vector<ra::PageKey> out;
  if (engine_ == StoreEngine::wal) {
    if (prepared_lsn_.count(txid) == 0) return out;
    const wal::Record* prep = log_.findPrepare(txid);
    if (prep == nullptr) return out;
    out.reserve(prep->updates.size());
    for (const auto& u : prep->updates) out.push_back(u.key);
    return out;
  }
  auto it = prepared_.find(txid);
  if (it == prepared_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& u : it->second) out.push_back(u.key);
  return out;
}

std::vector<std::uint64_t> DiskStore::preparedTxids() const {
  std::vector<std::uint64_t> out;
  if (engine_ == StoreEngine::wal) {
    for (const auto& [txid, _] : prepared_lsn_) out.push_back(txid);
    return out;
  }
  for (const auto& [txid, _] : prepared_) out.push_back(txid);
  return out;
}

// ---- Group commit ------------------------------------------------------

Result<void> DiskStore::forceLog(sim::Process& self, std::uint64_t lsn) {
  const std::uint64_t epoch = crash_epoch_;
  while (log_.durableLsn() < lsn) {
    if (crash_epoch_ != epoch) {
      return makeError(Errc::io, "store crashed while forcing the log");
    }
    if (force_in_progress_) {
      // Another committer is already forcing; ride its batch (or lead the
      // next one if its target snapshot predates our record).
      force_waiters_.wait(self);
      continue;
    }
    force_in_progress_ = true;
    struct LeaderScope {
      bool& flag;
      sim::WaitQueue& waiters;
      ~LeaderScope() {
        flag = false;
        waiters.notifyAll();
      }
    } scope{force_in_progress_, force_waiters_};
    // Group-commit window: linger so concurrent committers can append their
    // records into this force.
    if (cost_.wal_group_commit_window > sim::kZero) self.delay(cost_.wal_group_commit_window);
    if (crash_epoch_ != epoch) {
      return makeError(Errc::io, "store crashed while forcing the log");
    }
    const std::uint64_t target = log_.lastLsn();
    const std::size_t payload = log_.payloadPagesBetween(log_.durableLsn(), target);
    sim::SimLockGuard arm(arm_, self);
    if (crash_epoch_ != epoch) {
      return makeError(Errc::io, "store crashed while forcing the log");
    }
    ++*m_wal_forces_;
    self.delay(cost_.commit_log_write +
               static_cast<std::int64_t>(payload) * cost_.wal_force_per_page);
    if (crash_epoch_ != epoch) {
      return makeError(Errc::io, "store crashed while forcing the log");
    }
    log_.markDurable(target);
  }
  return okResult();
}

// ---- Write-back / checkpoint -------------------------------------------

bool DiskStore::needsWriteBack() const {
  return engine_ == StoreEngine::wal && !dirty_.empty();
}

Result<std::size_t> DiskStore::writeBackSome(sim::Process& self, std::size_t max_pages) {
  if (engine_ != StoreEngine::wal || flush_in_progress_) return std::size_t{0};
  flush_in_progress_ = true;
  struct FlushScope {
    bool& flag;
    ~FlushScope() { flag = false; }
  } scope{flush_in_progress_};
  const std::uint64_t epoch = crash_epoch_;
  const auto batch = dirty_.pickBatch(log_.durableLsn(), max_pages);
  if (batch.empty()) return std::size_t{0};
  std::size_t applied = 0;
  {
    sim::SimLockGuard arm(arm_, self);
    if (crash_epoch_ != epoch) return std::size_t{0};
    // One seek amortized over the whole batch — the asynchronous win the
    // flat engine's per-page synchronous path cannot have.
    self.delay(cost_.disk_seek_rotate +
               static_cast<std::int64_t>(batch.size()) * cost_.disk_per_page);
    if (crash_epoch_ != epoch) return std::size_t{0};
    for (const auto& [key, dp] : batch) {
      StoredSegment* s = find(key.segment);
      if (s == nullptr || key.page >= s->info.pageCount()) {
        // Destroyed/shrunk while staged; drop the image.
        dirty_.applied(key, dp.lsn);
        continue;
      }
      s->pages[key.page] = dp.data;
      ++*m_writes_;
      ++*m_wal_pages_wb_;
      cacheInsert(key);
      ++applied;
      dirty_.applied(key, dp.lsn);
    }
  }
  if (crash_epoch_ != epoch) return std::size_t{0};
  // Everything below the oldest still-dirty record is now in the images.
  const std::uint64_t min_dirty = dirty_.minLsn();
  const std::uint64_t new_applied =
      std::min(min_dirty == 0 ? 0 : min_dirty - 1, log_.durableLsn());
  wal::Record ck;
  ck.kind = wal::RecordKind::checkpoint;
  ck.applied_lsn = new_applied;
  const std::uint64_t ck_lsn = log_.append(std::move(ck));
  ++*m_wal_records_;
  log_.setApplied(new_applied);
  ++*m_wal_checkpoints_;
  CLOUDS_TRY(forceLog(self, ck_lsn));
  const std::size_t dropped = log_.truncate();
  *m_wal_truncated_ += dropped;
  ++*m_wal_write_backs_;
  return applied;
}

void DiskStore::startFlusher(sim::Simulation& sim, std::function<bool()> alive) {
  if (engine_ != StoreEngine::wal) return;
  flusher_sim_ = &sim;
  flusher_alive_ = std::move(alive);
  scheduleFlusherTick();
}

void DiskStore::scheduleFlusherTick() {
  // Daemon ticks do not keep run() alive; the spawned sweep process does,
  // so an in-flight write-back always completes before the simulation ends.
  flusher_sim_->scheduleDaemon(cost_.wal_writeback_interval, [this] {
    const bool node_up = !flusher_alive_ || flusher_alive_();
    if (node_up && needsWriteBack() && !flush_in_progress_) {
      flusher_sim_->spawn("store" + std::to_string(home_) + ":flusher",
                          [this](sim::Process& p) {
                            (void)writeBackSome(p, cost_.wal_writeback_batch);
                          });
    }
    scheduleFlusherTick();
  });
}

// ---- Crash / recovery --------------------------------------------------

void DiskStore::clearBufferCache() { cache_.clear(); }

void DiskStore::loseVolatileState() {
  cache_.clear();
  if (engine_ != StoreEngine::wal) return;
  ++crash_epoch_;
  const std::size_t keep = torn_tail_keep_;
  torn_tail_keep_ = 0;
  log_.crash(keep);
  // The applied watermark is volatile too: re-derive it from the last
  // checkpoint record that made it to the durable log. (A sweep whose
  // checkpoint record was lost simply gets its pages re-staged and
  // re-applied — idempotent, because only durable records reach the images.)
  std::uint64_t applied = 0;
  for (const wal::Record& r : log_.records()) {
    if (r.kind == wal::RecordKind::checkpoint) applied = r.applied_lsn;
  }
  log_.setApplied(applied);
  rebuildVolatileFromLog();
  force_waiters_.notifyAll();
}

void DiskStore::rebuildVolatileFromLog() {
  dirty_.clear();
  prepared_lsn_.clear();
  std::map<std::uint64_t, const wal::Record*> prep;
  auto stageGuarded = [this](const PageUpdate& u, std::uint64_t lsn) {
    const StoredSegment* s = find(u.key.segment);
    if (s == nullptr || u.key.page >= s->info.pageCount()) return;
    dirty_.stage(u.key, u.data, lsn);
  };
  for (const wal::Record& r : log_.records()) {
    switch (r.kind) {
      case wal::RecordKind::page_write:
        if (r.lsn > log_.appliedLsn()) {
          for (const PageUpdate& u : r.updates) stageGuarded(u, r.lsn);
        }
        break;
      case wal::RecordKind::prepare:
        prepared_lsn_[r.txid] = r.lsn;
        prep[r.txid] = &r;
        break;
      case wal::RecordKind::commit: {
        auto it = prep.find(r.txid);
        if (it != prep.end()) {
          if (r.lsn > log_.appliedLsn()) {
            for (const PageUpdate& u : it->second->updates) stageGuarded(u, r.lsn);
          }
          prepared_lsn_.erase(r.txid);
          prep.erase(it);
        }
        break;
      }
      case wal::RecordKind::abort:
        prepared_lsn_.erase(r.txid);
        prep.erase(r.txid);
        break;
      case wal::RecordKind::checkpoint:
        break;
    }
  }
}

Result<std::size_t> DiskStore::recover(sim::Process& self) {
  if (engine_ != StoreEngine::wal) return std::size_t{0};
  const std::size_t count = log_.recordCount();
  {
    sim::SimLockGuard arm(arm_, self);
    // One sequential pass over the surviving log: a seek to its head plus a
    // per-record re-stage cost. Truncation is what keeps this bounded.
    self.delay(cost_.disk_seek_rotate +
               static_cast<std::int64_t>(count) * cost_.wal_replay_per_record);
  }
  ++*m_wal_replays_;
  *m_wal_replayed_ += count;
  return count;
}

// ---- Snapshots ---------------------------------------------------------

namespace {
// One layout per magic: a file under any other magic is refused, not
// misparsed.
constexpr std::uint32_t kSnapshotMagic = 0xC10D5703u;

// An in-doubt transaction of the engine-neutral prepared section.
struct PreparedTxn {
  std::uint64_t txid = 0;
  std::vector<PageUpdate> updates;

  template <typename P, typename F>
  static void fields(P& p, F& f) {
    f(p.txid);
    f(p.updates);
  }
};

bool wholePages(const std::vector<PageUpdate>& updates) {
  return std::all_of(updates.begin(), updates.end(),
                     [](const PageUpdate& u) { return u.data.size() == ra::kPageSize; });
}
}  // namespace

// A snapshot file, format v3 (docs/STORAGE.md): the one statement of its
// layout. Either engine writes and loads it.
struct DiskStore::Snapshot {
  std::uint32_t home = 0;
  std::uint64_t next_seq = 0;
  std::map<Sysname, StoredSegment> segments;
  std::vector<PreparedTxn> prepared;
  std::uint8_t has_log = 0;  // a wal store's: its log follows
  wal::Log log;

  template <typename S, typename F>
  static void fields(S& s, F& f) {
    f(codec::Constant{kSnapshotMagic, "bad snapshot magic"});
    f(s.home);
    f(s.next_seq);
    f(s.segments);
    f(s.prepared);
    f(s.has_log);
    if (s.has_log != 0) f(s.log);
  }
};

Result<void> DiskStore::saveTo(const std::string& path) const {
  Snapshot s;
  s.home = home_;
  s.next_seq = next_seq_;
  s.segments = segments_;
  if (engine_ == StoreEngine::wal) {
    for (const auto& [txid, lsn] : prepared_lsn_) {
      const wal::Record* prep = log_.findPrepare(txid);
      if (prep != nullptr && prep->lsn <= log_.durableLsn()) {
        s.prepared.push_back({txid, prep->updates});
      }
    }
    s.has_log = 1;
    s.log = log_;
  } else {
    for (const auto& [txid, updates] : prepared_) s.prepared.push_back({txid, updates});
  }
  return writeHostFile(path, codec::encode(s).take());
}

void DiskStore::replayIntoImages(const wal::Log& log) {
  // Fold the durable prefix of a wal snapshot's log into the flat images:
  // committed page images in LSN order end at the newest durable version of
  // every page. The unforced tail is treated as lost, like a crash would.
  std::map<std::uint64_t, const wal::Record*> prep;
  auto apply = [this](const PageUpdate& u) {
    StoredSegment* s = find(u.key.segment);
    if (s == nullptr || u.key.page >= s->info.pageCount()) return;
    s->pages[u.key.page] = u.data;
  };
  for (const wal::Record& r : log.records()) {
    if (r.lsn > log.durableLsn()) continue;
    switch (r.kind) {
      case wal::RecordKind::page_write:
        for (const PageUpdate& u : r.updates) apply(u);
        break;
      case wal::RecordKind::prepare:
        prep[r.txid] = &r;
        break;
      case wal::RecordKind::commit: {
        auto it = prep.find(r.txid);
        if (it != prep.end()) {
          for (const PageUpdate& u : it->second->updates) apply(u);
          prep.erase(it);
        }
        break;
      }
      case wal::RecordKind::abort:
        prep.erase(r.txid);
        break;
      case wal::RecordKind::checkpoint:
        break;
    }
  }
}

Result<void> DiskStore::loadFrom(const std::string& path) {
  CLOUDS_TRY_ASSIGN(buf, readHostFile(path));
  // Every refusal, a file cut short among them, is an I/O error.
  auto read = codec::decode<Snapshot>(buf);
  if (!read.ok()) return makeError(Errc::io, read.error().message + " in " + path);
  Snapshot& snap = read.value();
  for (auto& [name, seg] : snap.segments) {
    seg.info.name = name;
    for (const auto& [idx, data] : seg.pages) {
      // readPage hands every stored page out as a kPageSize image.
      if (idx >= seg.info.pageCount() || data.size() != ra::kPageSize) {
        return makeError(Errc::io,
                         "bad page " + ra::PageKey{name, idx}.toString() + " in " + path);
      }
    }
  }
  // Prepared and logged images reach the segments, as the same kPageSize
  // images, through commit, the dirty table and replay.
  const bool whole =
      std::all_of(snap.prepared.begin(), snap.prepared.end(),
                  [](const PreparedTxn& t) { return wholePages(t.updates); }) &&
      std::all_of(snap.log.records().begin(), snap.log.records().end(),
                  [](const wal::Record& r) { return wholePages(r.updates); });
  if (!whole) return makeError(Errc::io, "bad page image size in " + path);

  home_ = snap.home;
  next_seq_ = snap.next_seq;
  segments_ = std::move(snap.segments);
  prepared_.clear();
  log_.clear();
  prepared_lsn_.clear();
  dirty_.clear();
  if (engine_ == StoreEngine::flat) {
    if (snap.has_log != 0) replayIntoImages(snap.log);
    for (auto& [txid, updates] : snap.prepared) prepared_[txid] = std::move(updates);
  } else if (snap.has_log != 0) {
    log_ = std::move(snap.log);
  } else {
    // Flat-format snapshot into a wal store: synthesize a durable prepare
    // record per in-doubt transaction so the 2PC contract carries over.
    for (auto& [txid, updates] : snap.prepared) {
      wal::Record r;
      r.kind = wal::RecordKind::prepare;
      r.txid = txid;
      r.updates = std::move(updates);
      const std::uint64_t lsn = log_.append(std::move(r));
      log_.markDurable(lsn);
    }
  }
  loseVolatileState();
  return okResult();
}

}  // namespace clouds::store

// Data-server storage (paper §3, §4.3).
//
// "Secondary storage is provided by data servers. Data servers are used to
//  store Clouds objects and supply the code and data of these objects to
//  compute servers." The prototype "stores the data in Unix files"; here
//  the durable medium is an in-memory image with an explicit
//  volatile/durable split plus optional snapshots to host files, so both
//  in-simulation crashes (durable state survives, buffer cache does not)
//  and cross-simulation persistence (paper §2.1: an object "survives system
//  crashes and shutdowns") are testable.
//
// The store is also the two-phase-commit participant's durable half:
// prepared page updates are staged in a log that survives crashes, exactly
// what the consistency layer's recovery path needs.
//
// Two engines share this API (docs/STORAGE.md):
//  * flat — the original reference path: every write lands synchronously in
//    the segment images; the prepared map doubles as the durable 2PC log.
//  * wal  — the v2 log-structured path: writes, prepares, and decisions are
//    log records made durable by a group-commit force (concurrent callers
//    coalesce into one batched force), committed images ride in a dirty-page
//    table until an asynchronous checkpointer writes them back in batches
//    and truncates the log.
// Both engines serialize their mechanical disk time through one arm mutex —
// a data server has a single spindle — which is what makes the wal engine's
// coalescing measurable (bench/bench_store.cpp, EXPERIMENTS §E11).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/sysname.hpp"
#include "ra/types.hpp"
#include "sim/cost_model.hpp"
#include "sim/metrics.hpp"
#include "sim/process.hpp"
#include "sim/sync.hpp"
#include "store/checkpoint.hpp"
#include "store/wal.hpp"

namespace clouds::sim {
class Simulation;
}

namespace clouds::store {

enum class StoreEngine : std::uint8_t { flat = 0, wal = 1 };

class DiskStore {
 public:
  DiskStore(std::uint32_t home_node, const sim::CostModel& cost,
            std::size_t buffer_cache_pages = 256, StoreEngine engine = StoreEngine::flat);
  // Not copyable: the counter handles point into the registry counted into.
  DiskStore(const DiskStore&) = delete;
  DiskStore& operator=(const DiskStore&) = delete;

  std::uint32_t homeNode() const noexcept { return home_; }
  StoreEngine engine() const noexcept { return engine_; }

  // ---- Segment operations (metadata is cheap; page I/O pays disk time) ----
  Result<Sysname> createSegment(std::uint64_t length, bool zero_fill = true);
  Result<ra::SegmentInfo> stat(const Sysname& segment) const;
  Result<void> resize(const Sysname& segment, std::uint64_t new_length);
  Result<void> destroySegment(const Sysname& segment);

  // Read a page into out (kPageSize bytes). Pages never written read as
  // zeroes and cost no disk I/O; `was_written` reports which case occurred
  // (the client charges a zero-fill fault instead of a copy fault).
  Result<bool> readPage(sim::Process& self, const ra::PageKey& key, MutableByteSpan out);
  Result<void> writePage(sim::Process& self, const ra::PageKey& key, ByteSpan data);
  // Batched write: under the wal engine the whole batch is one log record
  // and one (group-committed) force; under flat it degenerates to a loop.
  Result<void> writePages(sim::Process& self, const std::vector<PageUpdate>& updates);

  // ---- Two-phase commit participant (durable log) ----
  Result<void> prepare(sim::Process& self, std::uint64_t txid, std::vector<PageUpdate> updates);
  Result<void> commitPrepared(sim::Process& self, std::uint64_t txid);
  Result<void> abortPrepared(sim::Process& self, std::uint64_t txid);
  bool hasPrepared(std::uint64_t txid) const {
    return engine_ == StoreEngine::wal ? prepared_lsn_.count(txid) != 0
                                       : prepared_.count(txid) != 0;
  }
  std::vector<std::uint64_t> preparedTxids() const;
  // Keys staged under a prepared transaction (empty when unknown).
  std::vector<ra::PageKey> preparedKeys(std::uint64_t txid) const;

  // ---- WAL engine: checkpointer / recovery ----
  // Start the write-back flusher: a daemon tick (does not keep an unbounded
  // run() alive) that spawns a bounded sweep whenever committed pages are
  // waiting. `alive` gates the sweeps (a crashed node's disk is idle).
  void startFlusher(sim::Simulation& sim, std::function<bool()> alive = {});
  bool needsWriteBack() const;
  // One bounded sweep: apply up to max_pages durable dirty images to the
  // segments (one seek amortized over the batch), append + force a
  // checkpoint record, truncate the log. Returns pages applied.
  Result<std::size_t> writeBackSome(sim::Process& self, std::size_t max_pages);
  // Charge reboot-time log replay (state is already rebuilt eagerly by
  // loseVolatileState); returns the records replayed. No-op under flat.
  Result<std::size_t> recover(sim::Process& self);

  // ---- Failure / persistence ----
  // In-simulation crash: the buffer cache is lost; images and the forced
  // log survive. The wal engine additionally drops the unforced log tail
  // (torn tail) and rebuilds its dirty table and prepared index by replay.
  void loseVolatileState();
  void clearBufferCache();
  // Test hook: the next crash keeps this many records of the unforced tail,
  // modeling a force batch that was partially persisted (sequential log:
  // the surviving records are a prefix of the batch).
  void setTornTailKeep(std::size_t records) noexcept { torn_tail_keep_ = records; }

  // Fault injection: while faulty, page reads/writes and prepare fail with
  // Errc::io (after paying their disk time — a failing disk still spins).
  // Commit/abort of an already-prepared transaction stay available: the
  // decision records live in the forced log, and gating them would turn a
  // transient disk fault into a stuck in-doubt transaction.
  void setFaulty(bool faulty) noexcept { faulty_ = faulty; }
  bool faulty() const noexcept { return faulty_; }

  // Count into `metrics` as "<scope>/disk/...", "<scope>/store/..." and
  // "<scope>/wal/...", carrying the counts so far over. Until then the store
  // counts into a registry of its own (stores built outside a node: unit
  // tests, calibration), scoped by its home node id.
  void attachMetrics(sim::MetricsRegistry& metrics, const std::string& scope);

  // Snapshot all durable state to / from a host file (survives the process).
  // loadFrom refuses a file of another format version, or one whose page
  // images or log records could not have been written, with Errc::io and
  // leaves the store unchanged.
  Result<void> saveTo(const std::string& path) const;
  Result<void> loadFrom(const std::string& path);

  std::uint64_t diskReads() const noexcept { return *m_reads_; }
  std::uint64_t diskWrites() const noexcept { return *m_writes_; }
  // Live log length (records not yet truncated), not a count of appends.
  std::uint64_t walRecordCount() const noexcept { return log_.recordCount(); }
  std::uint64_t walDurableLsn() const noexcept { return log_.durableLsn(); }
  std::uint64_t walAppliedLsn() const noexcept { return log_.appliedLsn(); }
  std::size_t dirtyPageCount() const noexcept { return dirty_.size(); }

 private:
  struct StoredSegment {
    ra::SegmentInfo info;
    std::map<ra::PageIndex, Bytes> pages;  // only written pages are present
  };
  // O(1) LRU buffer cache: list in recency order + key -> list position.
  struct BufferCache {
    std::list<ra::PageKey> order;  // front = LRU victim, back = most recent
    std::map<ra::PageKey, std::list<ra::PageKey>::iterator> index;
    bool contains(const ra::PageKey& key) const { return index.count(key) != 0; }
    void touch(const ra::PageKey& key);
    // Inserts key; returns true if a victim was evicted.
    bool insert(const ra::PageKey& key, std::size_t capacity);
    void clear() {
      order.clear();
      index.clear();
    }
  };

  void cacheInsert(const ra::PageKey& key);
  void chargeDiskRead(sim::Process& self, const ra::PageKey& key);
  void chargeDiskWrite(sim::Process& self);
  Result<void> diskFault(sim::Process& self, const char* op);
  Result<void> writePageDurable(sim::Process& self, const ra::PageKey& key, ByteSpan data);
  Result<void> validateUpdate(const ra::PageKey& key, std::size_t size) const;
  StoredSegment* find(const Sysname& s);
  const StoredSegment* find(const Sysname& s) const;

  // ---- wal engine internals ----
  // Block until lsn is durable, becoming the group-commit leader if no
  // force is in flight: wait the coalescing window, then pay one batched
  // force on the arm for everything appended so far. Errc::io if a crash
  // swallowed the tail first.
  Result<void> forceLog(sim::Process& self, std::uint64_t lsn);
  // Rebuild dirty table + prepared index from the (post-crash) log.
  void rebuildVolatileFromLog();
  // Apply a decoded log into the flat images (cross-engine snapshot load).
  void replayIntoImages(const wal::Log& log);
  void scheduleFlusherTick();
  void scrubLogUpdates(const Sysname& segment, ra::PageIndex page_count);

  std::uint32_t home_;
  const sim::CostModel& cost_;
  std::size_t cache_capacity_;
  StoreEngine engine_;
  std::uint64_t next_seq_ = 1;
  std::map<Sysname, StoredSegment> segments_;
  std::map<std::uint64_t, std::vector<PageUpdate>> prepared_;  // flat: durable 2PC log
  BufferCache cache_;

  // wal engine state. The log below durable_lsn and the segment images are
  // durable; the dirty table, prepared index, and unforced tail are not.
  wal::Log log_;
  wal::DirtyTable dirty_;
  std::map<std::uint64_t, std::uint64_t> prepared_lsn_;  // txid -> prepare record lsn
  // One spindle: every mechanical delay (seek, transfer, log force) holds
  // this while it charges time.
  sim::SimMutex arm_;
  bool force_in_progress_ = false;
  sim::WaitQueue force_waiters_;
  // Bumped by every crash; forcers and flush sweeps re-check it after each
  // delay and abandon their work when the universe has moved on.
  std::uint64_t crash_epoch_ = 0;
  bool flush_in_progress_ = false;
  sim::Simulation* flusher_sim_ = nullptr;
  std::function<bool()> flusher_alive_;
  std::size_t torn_tail_keep_ = 0;

  bool faulty_ = false;
  // Counters, bound to own_metrics_ until attachMetrics re-binds them.
  sim::MetricsRegistry own_metrics_;
  std::uint64_t* m_reads_ = nullptr;
  std::uint64_t* m_writes_ = nullptr;
  std::uint64_t* m_io_errors_ = nullptr;
  std::uint64_t* m_cache_hits_ = nullptr;
  std::uint64_t* m_cache_misses_ = nullptr;
  std::uint64_t* m_cache_evictions_ = nullptr;
  std::uint64_t* m_wal_forces_ = nullptr;
  std::uint64_t* m_wal_records_ = nullptr;
  std::uint64_t* m_wal_write_backs_ = nullptr;
  std::uint64_t* m_wal_pages_wb_ = nullptr;
  std::uint64_t* m_wal_checkpoints_ = nullptr;
  std::uint64_t* m_wal_truncated_ = nullptr;
  std::uint64_t* m_wal_replays_ = nullptr;
  std::uint64_t* m_wal_replayed_ = nullptr;
};

}  // namespace clouds::store

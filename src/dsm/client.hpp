// DSM client partition — the compute-server side of the coherence protocol.
//
// This is the Partition the MMU consults for every Clouds segment: a cache
// of page frames in {invalid | shared | exclusive} states. Misses and write
// upgrades run the fault path: trap cost, a read_page/write_page request to
// the segment's home data server, install cost (zero-fill or frame copy),
// and versioned-grant staleness checks.
//
// Every request this node makes of a data server (its own page and segment
// requests, and SyncClient's locks, semaphores and 2PC) is encoded once and
// sent through exchange(): a RaTP transaction, or — when the server is this
// very node — a syscall into the co-located server's dispatcher.
//
// It also answers the server's invalidate/degrade callbacks through one
// handler, serveCallback(), surrendering dirty data, and provides the hooks
// the consistency layer needs (collect / clean / drop a segment's dirty
// frames).
#pragma once

#include <cstdint>
#include <map>

#include "dsm/protocol.hpp"
#include "ra/node.hpp"
#include "ra/partition.hpp"
#include "sim/sync.hpp"
#include "store/disk_store.hpp"

namespace clouds::dsm {

class DsmServer;

class DsmClientPartition : public ra::Partition {
 public:
  // `local_server` is non-null when this node is also a data server;
  // requests for segments homed here then bypass the network (but not the
  // protocol).
  DsmClientPartition(ra::Node& node, DsmServer* local_server,
                     std::size_t frame_capacity = 2048);

  ra::Node& node() noexcept { return node_; }

  // ---- ra::Partition ----
  bool serves(const Sysname& segment) const override { return ra::isSegmentName(segment); }
  Result<ra::PageHandle> resolvePage(sim::Process& self, const ra::PageKey& key,
                                     ra::Access access) override;
  Result<ra::SegmentInfo> stat(sim::Process& self, const Sysname& segment) override;
  Result<void> flushSegment(sim::Process& self, const Sysname& segment) override;
  // Write back every dirty frame on this node (shutdown / sync path).
  Result<void> flushAll(sim::Process& self);
  void dropSegment(const Sysname& segment) override;
  std::uint64_t faultCount() const override { return *m_read_faults_ + *m_write_faults_; }

  // ---- Segment management (routed to the named data server) ----
  Result<Sysname> createSegment(sim::Process& self, net::NodeId home, std::uint64_t length,
                                bool zero_fill = true);
  Result<void> destroySegment(sim::Process& self, const Sysname& name);

  // ---- Hooks for the consistency layer ----
  // Dirty exclusive frames of the segment, as page updates (for 2PC).
  std::vector<store::PageUpdate> collectDirtyPages(const Sysname& segment) const;
  // Mark the segment's frames clean (after a successful commit).
  void markSegmentClean(const Sysname& segment);
  // Transaction isolation: while a segment is pinned (write-locked by an
  // open cp scope) its dirty frames refuse to surrender uncommitted data to
  // coherence callbacks (the server retries) and are skipped by eviction.
  // Without the pin, a concurrent lock-free read (e.g. an invocation's
  // demand-paging probe) can force a degrade write-back that publishes
  // to-be-aborted bytes as committed store state.
  void pinSegment(const Sysname& segment);
  void unpinSegment(const Sysname& segment);

  // One request to `server`'s kPortDsm service; returns the raw reply.
  // `options` govern the RaTP transaction and are unused by a local call.
  Result<Bytes> exchange(sim::Process& self, net::NodeId server, Bytes request,
                         net::RatpOptions options = {});

  // ---- Server -> client coherence callbacks ----
  // The kPortDsmCallback handler: decodes one invalidate/degrade request
  // and encodes the reply — the frame's dirty data when it had any (the
  // server folds it into the store), or status busy when the frame is
  // pinned by an open transaction (nothing is surrendered; the server must
  // retry). Bound as the RaTP service, and called directly by a co-located
  // data server.
  Bytes serveCallback(const Bytes& request);

  // Node-crash hook: every frame is lost.
  void loseVolatileState();

  // A data server crashed: its volatile directory (copysets, ownership)
  // died with it, so every grant it issued is void — the rebooted server
  // cannot invalidate copies it no longer remembers. Drop the clean frames
  // homed there and reset their version horizon (the reborn directory
  // numbers grants from 1 again). Dirty exclusive frames are kept: theirs
  // is the only surviving copy, recovered by write-back adoption. Returns
  // the number of frames dropped.
  std::size_t purgeHomedOn(net::NodeId home);

  std::size_t residentFrames() const noexcept { return frames_.size(); }
  std::size_t frameCapacity() const noexcept { return capacity_; }

  // Cache-residency hint for the distributed scheduler: the distinct
  // segments with at least one valid resident frame, in sysname order,
  // capped at `max`. Deterministic (frames_ is an ordered map).
  std::vector<Sysname> cachedSegments(std::size_t max) const;

 private:
  enum class FState : std::uint8_t { invalid, shared, exclusive };
  struct Frame {
    Bytes data;
    FState state = FState::invalid;
    bool dirty = false;
    std::uint64_t version = 0;   // version of the current grant
    std::uint64_t max_seen = 0;  // newest version observed (grants + callbacks)
    std::uint64_t lru = 0;
  };
  struct Inflight {
    bool busy = false;
    sim::WaitQueue waiters;
  };

  // One fault: request, staleness check, install. Returns false for a stale
  // grant (caller retries).
  Result<bool> fault(sim::Process& self, const ra::PageKey& key, ra::Access access);
  Result<PageGrant> requestPage(sim::Process& self, const ra::PageKey& key, ra::Access access);
  // Ship dirty pages of one segment in a single exchange (the server
  // applies them as one batched store write).
  Result<void> sendWriteBackBatch(sim::Process& self, const Sysname& segment,
                                  const std::vector<store::PageUpdate>& updates, bool drop);
  // True when `home` is this node's own data server.
  bool homedHere(net::NodeId home) const {
    return home == node_.id() && local_server_ != nullptr;
  }
  void maybeEvict(sim::Process& self);
  Bytes onInvalidate(const ra::PageKey& key, std::uint64_t version, bool* was_dirty,
                     bool* busy);
  Bytes onDegrade(const ra::PageKey& key, std::uint64_t version, bool* was_dirty, bool* busy);

  ra::Node& node_;
  DsmServer* local_server_;
  std::size_t capacity_;
  std::map<ra::PageKey, Frame> frames_;
  std::map<ra::PageKey, Inflight> inflight_;
  std::map<Sysname, int> pinned_;  // open-scope write pins (refcounted)
  std::uint64_t lru_clock_ = 0;
  // Counters ("<node>/dsm/..."), resolved at construction. remote_fetches
  // counts page requests that actually crossed the wire to a remote data
  // server (local-home short-circuits and cache hits excluded) — the
  // locality signal object migration exists to improve.
  std::uint64_t* m_read_faults_;
  std::uint64_t* m_write_faults_;
  std::uint64_t* m_hits_;
  std::uint64_t* m_write_backs_;
  std::uint64_t* m_evictions_;
  std::uint64_t* m_invalidated_;
  std::uint64_t* m_degraded_;
  std::uint64_t* m_remote_fetches_;
  std::uint64_t* m_home_crash_purges_;
  sim::Histogram* m_fault_latency_;
};

}  // namespace clouds::dsm

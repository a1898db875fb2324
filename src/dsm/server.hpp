// DSM server — the data-server side of the coherence protocol, the segment
// lock service, the distributed semaphores, and the 2PC participant, all
// behind one request dispatcher (serveDsm).
//
// Coherence is the fixed-distributed-manager variant of Li & Hudak's
// write-invalidate protocol, which the paper cites for its one-copy
// semantics [Li*89]: the data server homing a segment is the manager of all
// its pages. Per page it tracks {uncached | shared(copyset) | exclusive
// (owner)} plus a monotonically increasing version used by clients to
// reject stale (reordered/retransmitted) grants.
//
// Commit integrates with coherence: when a transaction's pages are applied
// to the store, every cached copy except the committing client's own
// exclusive frames is invalidated, preserving one-copy semantics across
// commits.
#pragma once

#include <cstdint>
#include <map>
#include <set>

#include "dsm/protocol.hpp"
#include "ra/node.hpp"
#include "sim/sync.hpp"
#include "store/disk_store.hpp"

namespace clouds::dsm {

class DsmClientPartition;

class DsmServer {
 public:
  // Binds the kPortDsm service on node's RaTP endpoint. The node must have
  // the data role; store is its durable half.
  DsmServer(ra::Node& node, store::DiskStore& store);

  // The co-located client partition, when this node is also a compute
  // server: callbacks to it short-circuit the network.
  void setLocalClient(DsmClientPartition* client) noexcept { local_client_ = client; }

  // The kPortDsm dispatcher, the one entry for every request to this data
  // server (pages, segments, locks, semaphores, 2PC): decodes one request
  // (dsm::decodeRequest), runs its handler and encodes the reply; a request
  // cut short, an unknown op or a callback op answers bad_argument.
  // `client` is the requesting node's id. Bound as the RaTP service, and
  // called directly by a co-located client partition.
  Message serveDsm(sim::Process& self, net::NodeId client, const Message& request);

  // Crash support: volatile directory/lock/semaphore state is lost; the
  // store's images and prepared log survive (store handles its own split).
  void loseVolatileState();

  // A compute client crashed: its page copies and exclusive ownership are
  // gone (the directory re-derives ownership from the surviving clients),
  // and every lock held by one of its owner tokens (token >> 32 == client)
  // is reclaimed so waiters need not sit out the full lease TTL.
  void onClientCrash(net::NodeId client);

 private:
  enum class PState : std::uint8_t { uncached, shared, exclusive };
  struct DirEntry {
    PState state = PState::uncached;
    std::set<net::NodeId> copyset;
    net::NodeId owner = net::kNoNode;
    std::uint64_t version = 0;
    sim::SimMutex mu;  // serializes protocol actions on this page
    // Back to a fresh entry's state, in place. Entries are never erased:
    // handlers blocked mid-request hold references to them and their mutex.
    void reset() {
      state = PState::uncached;
      copyset.clear();
      owner = net::kNoNode;
      version = 0;
    }
  };
  struct LockEntry {
    std::set<std::uint64_t> readers;
    std::uint64_t writer = 0;  // owner token, 0 = free
    // Shared->exclusive upgrades are the classic deadlock storm (every
    // cp-thread read-locks, then upgrades). One owner at a time may hold
    // the upgrade slot; other readers that also want to upgrade are wounded
    // immediately (deadlock error -> abort -> retry with backoff), which
    // guarantees a winner per round. The claiming handler clears the slot
    // on every path that returns, by its lock_wait_timeout deadline at the
    // latest; a crash of this server or of the client resets it.
    std::uint64_t upgrade_waiter = 0;
    // Leases: a holder that neither commits nor aborts (its node crashed)
    // loses its locks after lock_lease_ttl; an unlock refreshes nothing —
    // cp scopes are short relative to the lease.
    std::map<std::uint64_t, sim::TimePoint> granted_at;
    sim::WaitQueue queue;
  };
  struct SemEntry {
    std::int64_t count = 0;
    bool live = true;  // false after a crash: the id answers not_found
    sim::WaitQueue queue;
  };

  // ---- Request handlers, one per op (`client` is the requesting node) ----
  // Page coherence: read_page and write_page. Recalls the page from an
  // exclusive owner other than the client (degrade for a read, invalidate
  // for a write), then grants it through grantPage — the one grant path.
  Result<PageGrant> handlePage(sim::Process& self, net::NodeId client, const ra::PageKey& key,
                               ra::Access access);
  // Write-back: pages of one segment decided under their directory locks
  // (taken in key order) and applied through the store as a single batched
  // write — one log record / one group-commit force under the wal engine
  // instead of a force per page.
  Result<void> handleWriteBackBatch(sim::Process& self, net::NodeId client,
                                    const std::vector<store::PageUpdate>& updates, bool drop);

  // ---- Segment management ----
  Result<Sysname> handleCreate(sim::Process& self, std::uint64_t length, bool zero_fill);
  Result<ra::SegmentInfo> handleStat(sim::Process& self, const Sysname& name);
  Result<void> handleDestroy(sim::Process& self, const Sysname& name);

  // ---- Locks & semaphores ----
  Result<void> handleLock(sim::Process& self, const Sysname& segment, LockMode mode,
                          std::uint64_t owner);
  Result<void> handleUnlockAll(sim::Process& self, std::uint64_t owner);
  Result<std::uint64_t> handleSemCreate(sim::Process& self, std::int64_t initial);
  Result<void> handleSemP(sim::Process& self, std::uint64_t sem);
  Result<void> handleSemV(sim::Process& self, std::uint64_t sem);

  // ---- Two-phase commit participant ----
  Result<void> handlePrepare(sim::Process& self, std::uint64_t txid,
                             std::vector<store::PageUpdate> updates);
  Result<void> handleCommit(sim::Process& self, net::NodeId committer, std::uint64_t txid);
  Result<void> handleAbort(sim::Process& self, std::uint64_t txid);

  // Send a coherence callback; returns the holder's dirty image if any
  // (none when clean). A dead/unreachable holder is treated as having lost
  // its copy.
  Result<SharedBytes> callback(sim::Process& self, net::NodeId holder, Op op,
                               const ra::PageKey& key, std::uint64_t version);
  // Invalidates every shared copy of `key` but `keep`'s, over the copyset
  // as it stood before the first callback, skipping a holder that left it
  // meanwhile. A grant (`write_back`) stops at the first callback that
  // fails and folds a returned dirty image into the store; a commit's
  // images supersede every copy, so it ignores both.
  Result<void> invalidateSharers(sim::Process& self, DirEntry& e, net::NodeId keep,
                                 const ra::PageKey& key, std::uint64_t version, bool write_back);
  // With the entry's mutex held and no exclusive owner but the client left:
  // a write invalidates the other shared copies and takes the page
  // exclusive, a read joins the copyset. The grant carries the store's
  // image by reference, none for a zero-fill grant.
  Result<PageGrant> grantPage(sim::Process& self, DirEntry& e, net::NodeId client,
                              const ra::PageKey& key, std::uint64_t version, bool write);

  ra::Node& node_;
  store::DiskStore& store_;
  DsmClientPartition* local_client_ = nullptr;
  std::map<ra::PageKey, DirEntry> directory_;
  std::map<Sysname, LockEntry> locks_;
  std::map<std::uint64_t, SemEntry> semaphores_;
  std::uint64_t next_sem_ = 1;
  // Registry handles ("<node>/dsm/..."), resolved at construction.
  std::uint64_t* m_invalidations_;
  std::uint64_t* m_degrades_;
  std::uint64_t* m_page_reads_;
  std::uint64_t* m_page_writes_;
  std::uint64_t* m_write_backs_;
  std::uint64_t* m_tx_prepares_;
  std::uint64_t* m_tx_commits_;
  std::uint64_t* m_tx_aborts_;
  std::uint64_t* m_client_cleanups_;
  std::uint64_t* m_locks_reclaimed_;
  std::uint64_t* m_wb_adoptions_;
  std::uint64_t* m_indoubt_;
};

}  // namespace clouds::dsm

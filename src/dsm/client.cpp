#include "dsm/client.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "dsm/server.hpp"

namespace clouds::dsm {

namespace {
// The one image every zero-filled frame shares, until a write copies it.
const SharedBytes& zeroPage() {
  static const SharedBytes zero(Bytes(ra::kPageSize, std::byte{0}));
  return zero;
}
}  // namespace

DsmClientPartition::DsmClientPartition(ra::Node& node, DsmServer* local_server,
                                       std::size_t frame_capacity)
    : node_(node), local_server_(local_server), capacity_(frame_capacity) {
  sim::MetricsRegistry& metrics = node_.simulation().metrics();
  m_read_faults_ = &metrics.counter(node_.name() + "/dsm/read_faults");
  m_write_faults_ = &metrics.counter(node_.name() + "/dsm/write_faults");
  m_hits_ = &metrics.counter(node_.name() + "/dsm/hits");
  m_write_backs_ = &metrics.counter(node_.name() + "/dsm/write_backs");
  m_evictions_ = &metrics.counter(node_.name() + "/dsm/evictions");
  m_invalidated_ = &metrics.counter(node_.name() + "/dsm/frames_invalidated");
  m_degraded_ = &metrics.counter(node_.name() + "/dsm/frames_degraded");
  m_remote_fetches_ = &metrics.counter(node_.name() + "/dsm/remote_fetches");
  m_home_crash_purges_ = &metrics.counter(node_.name() + "/dsm/home_crash_purges");
  m_fault_latency_ = &metrics.histogram(node_.name() + "/dsm/fault_latency_usec");
  node_.ratp().bindService(
      net::kPortDsmCallback, [this](sim::Process& self, net::NodeId, const Message& request) {
        node_.cpu().compute(self, node_.cost().fault_trap);  // remote shootdown path
        return serveCallback(request);
      });
  node_.onCrashHook([this] { loseVolatileState(); });
  if (local_server_ != nullptr) local_server_->setLocalClient(this);
}

void DsmClientPartition::loseVolatileState() {
  frames_.clear();
  // Faulting processes killed by the crash are still parked in these wait
  // queues and unwind lazily; reset the entries in place (the queues must
  // stay alive) instead of destroying them under the waiters.
  for (auto& [key, inf] : inflight_) inf.busy = false;
  pinned_.clear();
}

std::size_t DsmClientPartition::purgeHomedOn(net::NodeId home) {
  std::size_t purged = 0;
  for (auto& [key, f] : frames_) {
    if (ra::sysnameHome(key.segment) != home) continue;
    // Frames are invalidated in place, never erased: a faulting process
    // blocked in fault() holds a Frame& into this map.
    const bool keep_dirty = f.state == FState::exclusive && f.dirty;
    if (!keep_dirty && f.state != FState::invalid) {
      f.state = FState::invalid;
      f.dirty = false;
      f.image = SharedBytes();
      ++purged;
    }
    f.version = 0;
    f.max_seen = 0;
  }
  if (purged != 0) {
    *m_home_crash_purges_ += purged;
    node_.simulation().trace(node_.name(), "dsm",
                             "data server " + std::to_string(home) + " crashed: dropped " +
                                 std::to_string(purged) + " cached frames");
  }
  return purged;
}

std::vector<Sysname> DsmClientPartition::cachedSegments(std::size_t max) const {
  std::vector<Sysname> out;
  out.reserve(std::min(max, frames_.size()));
  // frames_ is ordered by (segment, page), so a segment's frames are
  // contiguous and the result comes out sorted without extra work. Once a
  // segment has a valid frame, its remaining frames are skipped unread.
  auto it = frames_.begin();
  while (it != frames_.end() && out.size() < max) {
    if (it->second.state == FState::invalid) {
      ++it;
      continue;
    }
    out.push_back(it->first.segment);
    it = frames_.upper_bound(
        ra::PageKey{it->first.segment, std::numeric_limits<ra::PageIndex>::max()});
  }
  return out;
}

// ---------------------------------------------------------------- fault path

Result<ra::PageHandle> DsmClientPartition::resolvePage(sim::Process& self,
                                                       const ra::PageKey& key,
                                                       ra::Access access) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    Frame& f = frames_[key];
    const bool satisfied =
        f.state == FState::exclusive || (access == ra::Access::read && f.state == FState::shared);
    if (satisfied) {
      ++*m_hits_;
      f.lru = ++lru_clock_;
      if (access == ra::Access::read) {
        return ra::PageHandle::readOnly(f.image.data());
      }
      // Copy-on-write: the store, a log record, another frame or a cached
      // reply may share this image and must keep seeing its old bytes.
      if (!f.image.unique()) f.image = SharedBytes(ByteSpan(f.image));
      f.dirty = true;
      return ra::PageHandle::readWrite(f.image.mutableData());
    }
    Inflight& inf = inflight_[key];
    if (inf.busy) {
      // Another thread is already faulting this page in; join it. Even a
      // read may need to wait on a write upgrade (and vice versa): after
      // the wake we simply re-evaluate.
      inf.waiters.wait(self);
      continue;
    }
    inf.busy = true;
    auto r = fault(self, key, access);
    Inflight& inf2 = inflight_[key];  // re-lookup: fault() blocks
    inf2.busy = false;
    inf2.waiters.notifyAll();
    if (inf2.waiters.empty()) inflight_.erase(key);
    if (!r.ok()) return r.error();
    // Stale grant or raced invalidation: loop re-checks and refaults.
  }
  return makeError(Errc::internal, "resolvePage live-locked on " + key.toString());
}

Result<bool> DsmClientPartition::fault(sim::Process& self, const ra::PageKey& key,
                                       ra::Access access) {
  ++*(access == ra::Access::write ? m_write_faults_ : m_read_faults_);
  const sim::TimePoint fault_start = node_.simulation().now();
  node_.cpu().compute(self, node_.cost().fault_trap);
  maybeEvict(self);
  const net::NodeId home = ra::sysnameHome(key.segment);
  if (!homedHere(home)) ++*m_remote_fetches_;
  const Op op = access == ra::Access::read ? Op::read_page : Op::write_page;
  CLOUDS_TRY_ASSIGN(reply, exchange(self, home, {.op = op, .key = key}));
  PageGrant& grant = reply.grant;
  Frame& f = frames_[key];  // re-lookup: the exchange blocked
  if (grant.version < f.max_seen) {
    node_.simulation().trace(node_.name(), "dsm",
                             "stale grant v" + std::to_string(grant.version) + " for " +
                                 key.toString() + " (seen v" + std::to_string(f.max_seen) + ")");
    return false;
  }
  if (grant.zero_fill) {
    node_.cpu().compute(self, node_.cost().fault_zero_fill);
    f.image = zeroPage();
  } else {
    node_.cpu().compute(self, node_.cost().fault_map_frame);
    f.image = std::move(grant.data);
  }
  f.state = access == ra::Access::write ? FState::exclusive : FState::shared;
  f.dirty = false;
  f.version = grant.version;
  f.max_seen = grant.version;
  f.lru = ++lru_clock_;
  m_fault_latency_->observe(node_.simulation().now() - fault_start);
  return true;
}

Result<Reply> DsmClientPartition::exchange(sim::Process& self, net::NodeId server,
                                           const Request& request) {
  Message message = encodeRequest(request);
  if (homedHere(server)) {
    node_.cpu().compute(self, node_.cost().syscall);
    return decodeReply(request.op, local_server_->serveDsm(self, node_.id(), message));
  }
  CLOUDS_TRY_ASSIGN(reply, node_.ratp().transact(self, server, net::kPortDsm, std::move(message),
                                                 patience(request.op, node_.cost())));
  return decodeReply(request.op, reply);
}

Result<void> DsmClientPartition::call(sim::Process& self, net::NodeId server,
                                      const Request& request) {
  CLOUDS_TRY(exchange(self, server, request));
  return okResult();
}

Result<void> DsmClientPartition::sendWriteBackBatch(sim::Process& self, const Sysname& segment,
                                                    std::vector<store::PageUpdate> updates,
                                                    bool drop) {
  *m_write_backs_ += updates.size();
  return call(self, ra::sysnameHome(segment),
              {.op = Op::write_back_batch, .drop = drop, .updates = std::move(updates)});
}

void DsmClientPartition::maybeEvict(sim::Process& self) {
  while (frames_.size() >= capacity_) {
    // Victim: least-recently-used frame with no fault in flight.
    auto victim = frames_.end();
    for (auto it = frames_.begin(); it != frames_.end(); ++it) {
      if (inflight_.count(it->first) != 0) continue;
      // A pinned dirty frame holds uncommitted transaction bytes; evicting
      // it would publish them to the store outside 2PC.
      if (it->second.dirty && pinned_.count(it->first.segment) != 0) continue;
      if (victim == frames_.end() || it->second.lru < victim->second.lru) victim = it;
    }
    if (victim == frames_.end()) return;  // everything pinned by faults
    ++*m_evictions_;
    const ra::PageKey key = victim->first;
    const std::uint64_t version = victim->second.version;
    if (victim->second.state == FState::exclusive && victim->second.dirty) {
      // Share the image: callbacks may race the blocking write-back.
      (void)sendWriteBackBatch(self, key.segment, {store::PageUpdate{key, victim->second.image}},
                               /*drop=*/true);
      // Re-check: an invalidate may have consumed the frame meanwhile.
      auto it = frames_.find(key);
      if (it != frames_.end() && it->second.version == version) frames_.erase(it);
    } else {
      frames_.erase(victim);
    }
  }
}

// ---------------------------------------------------------------- callbacks

void DsmClientPartition::pinSegment(const Sysname& segment) { ++pinned_[segment]; }

void DsmClientPartition::unpinSegment(const Sysname& segment) {
  auto it = pinned_.find(segment);
  if (it == pinned_.end()) return;
  if (--it->second <= 0) pinned_.erase(it);
}

Message DsmClientPartition::serveCallback(const Message& message) {
  auto request = decodeRequest(message);
  if (!request.ok() || (request.value().op != Op::invalidate &&
                        request.value().op != Op::degrade)) {
    return codec::encode(Reply{.status = Errc::bad_argument}).message();
  }
  const Request& r = request.value();
  Reply reply{.op = r.op};
  Frame& f = frames_[r.key];
  const bool dirty = f.state == FState::exclusive && f.dirty;
  if (dirty && pinned_.count(r.key.segment) != 0) {
    // Uncommitted bytes of an open transaction: refuse to surrender them.
    // The frame (and the grant version we would have recorded) is untouched
    // so the server's retry after commit/abort sees a clean resolution.
    reply.status = Errc::busy;
    return codec::encode(reply).message();
  }
  // Surrender: the dirty image goes to the server, which folds it into the
  // store. An invalidated frame drops its image; a degraded one keeps it,
  // now shared and clean.
  ++*(r.op == Op::invalidate ? m_invalidated_ : m_degraded_);
  f.max_seen = std::max(f.max_seen, r.version);
  reply.dirty = dirty;
  if (dirty) reply.image = f.image;
  if (r.op == Op::invalidate) {
    f.image = SharedBytes();
    f.state = FState::invalid;
  } else if (f.state == FState::exclusive) {
    f.state = FState::shared;
  }
  f.dirty = false;
  return codec::encode(reply).message();
}

// ---------------------------------------------------------------- segment ops

Result<ra::SegmentInfo> DsmClientPartition::stat(sim::Process& self, const Sysname& segment) {
  CLOUDS_TRY_ASSIGN(reply, exchange(self, ra::sysnameHome(segment),
                                     {.op = Op::stat_segment, .segment = segment}));
  return reply.info;
}

Result<Sysname> DsmClientPartition::createSegment(sim::Process& self, net::NodeId home,
                                                  std::uint64_t length, bool zero_fill) {
  CLOUDS_TRY_ASSIGN(reply, exchange(self, home, {.op = Op::create_segment, .length = length,
                                                  .zero_fill = zero_fill}));
  return reply.segment;
}

Result<void> DsmClientPartition::destroySegment(sim::Process& self, const Sysname& name) {
  dropSegment(name);
  return call(self, ra::sysnameHome(name), {.op = Op::destroy_segment, .segment = name});
}

Result<void> DsmClientPartition::copySegment(sim::Process& self, const Sysname& from,
                                             const Sysname& to, std::uint64_t length) {
  const auto pages = static_cast<std::uint32_t>((length + ra::kPageSize - 1) / ra::kPageSize);
  Bytes buf(ra::kPageSize);
  for (std::uint32_t i = 0; i < pages; ++i) {
    // A PageHandle dies at the next block, and resolving the target page
    // may block on its home server: stage through a local buffer.
    CLOUDS_TRY_ASSIGN(src, resolvePage(self, {from, i}, ra::Access::read));
    std::memcpy(buf.data(), src.data(), ra::kPageSize);
    CLOUDS_TRY_ASSIGN(dst, resolvePage(self, {to, i}, ra::Access::write));
    std::memcpy(dst.mutableData(), buf.data(), ra::kPageSize);
  }
  return okResult();
}

// ---------------------------------------------------------------- locks, semaphores, 2PC

Result<void> DsmClientPartition::lock(sim::Process& self, const Sysname& segment, LockMode mode,
                                      std::uint64_t owner) {
  return call(self, ra::sysnameHome(segment),
              {.op = Op::lock, .segment = segment, .mode = mode, .owner = owner});
}

Result<void> DsmClientPartition::unlockAll(sim::Process& self, net::NodeId server,
                                           std::uint64_t owner) {
  return call(self, server, {.op = Op::unlock_all, .owner = owner});
}

Result<std::uint64_t> DsmClientPartition::semCreate(sim::Process& self, net::NodeId server,
                                                    std::int64_t initial) {
  CLOUDS_TRY_ASSIGN(reply, exchange(self, server, {.op = Op::sem_create, .initial = initial}));
  return reply.sem;
}

Result<void> DsmClientPartition::semP(sim::Process& self, std::uint64_t sem) {
  return call(self, static_cast<net::NodeId>(sem >> 32), {.op = Op::sem_p, .sem = sem});
}

Result<void> DsmClientPartition::semV(sim::Process& self, std::uint64_t sem) {
  return call(self, static_cast<net::NodeId>(sem >> 32), {.op = Op::sem_v, .sem = sem});
}

Result<void> DsmClientPartition::prepare(sim::Process& self, net::NodeId server,
                                         std::uint64_t txid,
                                         std::vector<store::PageUpdate> updates) {
  return call(self, server, {.op = Op::tx_prepare, .txid = txid, .updates = std::move(updates)});
}

Result<void> DsmClientPartition::decide(sim::Process& self, net::NodeId server,
                                        std::uint64_t txid, bool commit) {
  return call(self, server, {.op = commit ? Op::tx_commit : Op::tx_abort, .txid = txid});
}

// ---------------------------------------------------------------- hooks

Result<void> DsmClientPartition::flushSegment(sim::Process& self, const Sysname& segment) {
  // Collect first: sendWriteBackBatch blocks, and callbacks may mutate frames_.
  std::vector<ra::PageKey> dirty;
  for (const auto& [key, f] : ra::segmentRange(frames_, segment)) {
    if (f.state == FState::exclusive && f.dirty) dirty.push_back(key);
  }
  // Ship in bounded batches (one exchange, one batched store write each);
  // frames are re-checked at batch-build time since an earlier batch may
  // have blocked while callbacks collected some of them.
  const std::size_t max_batch = std::max<std::size_t>(1, node_.cost().dsm_writeback_batch_pages);
  std::size_t next = 0;
  while (next < dirty.size()) {
    std::vector<store::PageUpdate> batch;
    std::vector<ra::PageKey> sent;
    while (next < dirty.size() && batch.size() < max_batch) {
      const ra::PageKey& key = dirty[next++];
      auto it = frames_.find(key);
      if (it == frames_.end() || !it->second.dirty) continue;  // raced a callback
      batch.push_back(store::PageUpdate{key, it->second.image});
      sent.push_back(key);
    }
    if (batch.empty()) continue;
    CLOUDS_TRY(sendWriteBackBatch(self, segment, std::move(batch), /*drop=*/false));
    for (const ra::PageKey& key : sent) {
      auto it = frames_.find(key);
      if (it != frames_.end() && it->second.state == FState::exclusive) {
        it->second.state = FState::shared;
        it->second.dirty = false;
      }
    }
  }
  return okResult();
}

Result<void> DsmClientPartition::flushAll(sim::Process& self) {
  std::vector<Sysname> segments;
  for (const auto& [key, f] : frames_) {
    if (f.state == FState::exclusive && f.dirty &&
        (segments.empty() || segments.back() != key.segment)) {
      segments.push_back(key.segment);
    }
  }
  for (const Sysname& seg : segments) CLOUDS_TRY(flushSegment(self, seg));
  return okResult();
}

void DsmClientPartition::dropSegment(const Sysname& segment) {
  // Invalidate in place, never erase: a faulting process blocked in
  // compute() holds a Frame& into this map, and a concurrent transaction
  // rollback (or migration) landing here would free it mid-fault. Stale
  // entries are reclaimed later by maybeEvict, which skips in-flight keys.
  for (auto& [key, f] : ra::segmentRange(frames_, segment)) {
    f.image = SharedBytes();
    f.state = FState::invalid;
    f.dirty = false;
    f.version = 0;
    f.max_seen = 0;
  }
}

std::vector<store::PageUpdate> DsmClientPartition::collectDirtyPages(
    const Sysname& segment) const {
  std::vector<store::PageUpdate> out;
  for (const auto& [key, f] : ra::segmentRange(frames_, segment)) {
    if (f.state == FState::exclusive && f.dirty) out.push_back(store::PageUpdate{key, f.image});
  }
  return out;
}

void DsmClientPartition::markSegmentClean(const Sysname& segment) {
  for (auto& [key, f] : ra::segmentRange(frames_, segment)) f.dirty = false;
}

}  // namespace clouds::dsm

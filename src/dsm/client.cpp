#include "dsm/client.hpp"

#include <algorithm>
#include <cstring>

#include "dsm/server.hpp"

namespace clouds::dsm {

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
      net::kPortDsmCallback, [this](sim::Process& self, net::NodeId, const Bytes& request) {
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
    // Frames are invalidated in place, never erased: a process blocked
    // mid-access may still hold a PageHandle into the frame's buffer.
    const bool keep_dirty = f.state == FState::exclusive && f.dirty;
    if (!keep_dirty && f.state != FState::invalid) {
      f.state = FState::invalid;
      f.dirty = false;
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
  // frames_ is ordered by (segment, page), so a segment's frames are
  // contiguous and the result comes out sorted without extra work.
  for (const auto& [key, frame] : frames_) {
    if (frame.state == FState::invalid) continue;
    if (!out.empty() && out.back() == key.segment) continue;
    if (out.size() == max) break;
    out.push_back(key.segment);
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
      if (access == ra::Access::write) f.dirty = true;
      return ra::PageHandle{f.data.data(), f.state == FState::exclusive};
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
  CLOUDS_TRY_ASSIGN(grant, requestPage(self, key, access));
  Frame& f = frames_[key];  // re-lookup: requestPage blocked
  if (grant.version < f.max_seen) {
    node_.simulation().trace(node_.name(), "dsm",
                             "stale grant v" + std::to_string(grant.version) + " for " +
                                 key.toString() + " (seen v" + std::to_string(f.max_seen) + ")");
    return false;
  }
  if (grant.zero_fill) {
    node_.cpu().compute(self, node_.cost().fault_zero_fill);
    f.data.assign(ra::kPageSize, std::byte{0});
  } else {
    node_.cpu().compute(self, node_.cost().fault_map_frame);
    f.data = std::move(grant.data);
  }
  f.state = access == ra::Access::write ? FState::exclusive : FState::shared;
  f.dirty = false;
  f.version = grant.version;
  f.max_seen = grant.version;
  f.lru = ++lru_clock_;
  m_fault_latency_->observe(node_.simulation().now() - fault_start);
  return true;
}

Result<Bytes> DsmClientPartition::exchange(sim::Process& self, net::NodeId server, Bytes request,
                                           net::RatpOptions options) {
  if (homedHere(server)) {
    node_.cpu().compute(self, node_.cost().syscall);
    return local_server_->serveDsm(self, node_.id(), request);
  }
  return node_.ratp().transact(self, server, net::kPortDsm, std::move(request), options);
}

Result<PageGrant> DsmClientPartition::requestPage(sim::Process& self, const ra::PageKey& key,
                                                  ra::Access access) {
  const net::NodeId home = ra::sysnameHome(key.segment);
  if (!homedHere(home)) ++*m_remote_fetches_;
  Encoder e;
  e.u8(static_cast<std::uint8_t>(access == ra::Access::read ? Op::read_page : Op::write_page));
  encodePageKey(e, key);
  // A fault must outlast the server's coherence-callback patience (the
  // server may spend ~1 s deciding a slow holder is dead before it can
  // grant); retransmissions are deduplicated server-side.
  net::RatpOptions opts;
  opts.max_retries = node_.cost().dsm_callback_retries + 20;
  CLOUDS_TRY_ASSIGN(reply, exchange(self, home, std::move(e).take(), opts));
  Decoder d(reply);
  CLOUDS_TRY(decodeStatus(d, "page fault"));
  return decodeGrant(d);
}

Result<void> DsmClientPartition::sendWriteBackBatch(
    sim::Process& self, const Sysname& segment, const std::vector<store::PageUpdate>& updates,
    bool drop) {
  *m_write_backs_ += updates.size();
  Encoder e;
  e.u8(static_cast<std::uint8_t>(Op::write_back_batch));
  e.boolean(drop);
  store::encodePageUpdates(e, updates);
  CLOUDS_TRY_ASSIGN(reply, exchange(self, ra::sysnameHome(segment), std::move(e).take()));
  Decoder d(reply);
  return decodeStatus(d, "write back batch");
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
      // Copy the bytes out: callbacks may race the blocking write-back.
      (void)sendWriteBackBatch(self, key.segment, {store::PageUpdate{key, victim->second.data}},
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

Bytes DsmClientPartition::onInvalidate(const ra::PageKey& key, std::uint64_t version,
                                       bool* was_dirty, bool* busy) {
  Frame& f = frames_[key];
  *was_dirty = f.state == FState::exclusive && f.dirty;
  *busy = *was_dirty && pinned_.count(key.segment) != 0;
  if (*busy) {
    // Uncommitted bytes of an open transaction: refuse to surrender them.
    // The frame (and the grant version we would have recorded) is untouched
    // so the server's retry after commit/abort sees a clean resolution.
    *was_dirty = false;
    return {};
  }
  ++*m_invalidated_;
  f.max_seen = std::max(f.max_seen, version);
  Bytes data;
  if (*was_dirty) data = std::move(f.data);
  f.state = FState::invalid;
  f.dirty = false;
  f.data.clear();
  return data;
}

Bytes DsmClientPartition::onDegrade(const ra::PageKey& key, std::uint64_t version,
                                    bool* was_dirty, bool* busy) {
  Frame& f = frames_[key];
  *was_dirty = f.state == FState::exclusive && f.dirty;
  *busy = *was_dirty && pinned_.count(key.segment) != 0;
  if (*busy) {
    *was_dirty = false;
    return {};
  }
  ++*m_degraded_;
  f.max_seen = std::max(f.max_seen, version);
  Bytes data;
  if (*was_dirty) data = f.data;  // keep the (now shared, clean) copy
  if (f.state == FState::exclusive) f.state = FState::shared;
  f.dirty = false;
  return data;
}

void DsmClientPartition::pinSegment(const Sysname& segment) { ++pinned_[segment]; }

void DsmClientPartition::unpinSegment(const Sysname& segment) {
  auto it = pinned_.find(segment);
  if (it == pinned_.end()) return;
  if (--it->second <= 0) pinned_.erase(it);
}

Bytes DsmClientPartition::serveCallback(const Bytes& request) {
  Decoder d(request);
  Encoder reply;
  auto op = d.u8();
  auto key = decodePageKey(d);
  auto version = d.u64();
  const bool known = op.ok() && (op.value() == static_cast<std::uint8_t>(Op::invalidate) ||
                                 op.value() == static_cast<std::uint8_t>(Op::degrade));
  if (!known || !key.ok() || !version.ok()) {
    encodeStatus(reply, Errc::bad_argument);
    return std::move(reply).take();
  }
  bool dirty = false;
  bool busy = false;
  Bytes data = static_cast<Op>(op.value()) == Op::invalidate
                   ? onInvalidate(key.value(), version.value(), &dirty, &busy)
                   : onDegrade(key.value(), version.value(), &dirty, &busy);
  if (busy) {
    encodeStatus(reply, Errc::busy);
    return std::move(reply).take();
  }
  encodeStatus(reply, Errc::ok);
  reply.boolean(dirty);
  if (dirty) reply.bytes(data);
  return std::move(reply).take();
}

// ---------------------------------------------------------------- segment ops

Result<ra::SegmentInfo> DsmClientPartition::stat(sim::Process& self, const Sysname& segment) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(Op::stat_segment));
  e.sysname(segment);
  CLOUDS_TRY_ASSIGN(reply, exchange(self, ra::sysnameHome(segment), std::move(e).take()));
  Decoder d(reply);
  CLOUDS_TRY(decodeStatus(d, "stat"));
  CLOUDS_TRY_ASSIGN(name, d.sysname());
  CLOUDS_TRY_ASSIGN(length, d.u64());
  CLOUDS_TRY_ASSIGN(zf, d.boolean());
  return ra::SegmentInfo{name, length, zf};
}

Result<Sysname> DsmClientPartition::createSegment(sim::Process& self, net::NodeId home,
                                                  std::uint64_t length, bool zero_fill) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(Op::create_segment));
  e.u64(length);
  e.boolean(zero_fill);
  CLOUDS_TRY_ASSIGN(reply, exchange(self, home, std::move(e).take()));
  Decoder d(reply);
  CLOUDS_TRY(decodeStatus(d, "create segment"));
  return d.sysname();
}

Result<void> DsmClientPartition::destroySegment(sim::Process& self, const Sysname& name) {
  dropSegment(name);
  Encoder e;
  e.u8(static_cast<std::uint8_t>(Op::destroy_segment));
  e.sysname(name);
  CLOUDS_TRY_ASSIGN(reply, exchange(self, ra::sysnameHome(name), std::move(e).take()));
  Decoder d(reply);
  return decodeStatus(d, "destroy segment");
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
      batch.push_back(store::PageUpdate{key, it->second.data});
      sent.push_back(key);
    }
    if (batch.empty()) continue;
    CLOUDS_TRY(sendWriteBackBatch(self, segment, batch, /*drop=*/false));
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
    if (f.state == FState::exclusive && f.dirty) out.push_back(store::PageUpdate{key, f.data});
  }
  return out;
}

void DsmClientPartition::markSegmentClean(const Sysname& segment) {
  for (auto& [key, f] : ra::segmentRange(frames_, segment)) f.dirty = false;
}

}  // namespace clouds::dsm

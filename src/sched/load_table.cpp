#include "sched/load_table.hpp"

namespace clouds::sched {

void LoadTable::attachMetrics(sim::MetricsRegistry& registry, const std::string& scope) {
  m_evictions_ = &registry.counter(scope + "/sched/stale_evictions");
}

void LoadTable::record(const LoadReport& report, sim::TimePoint now, bool self) {
  Entry& e = entries_[report.node];
  if (!self && e.received != sim::kZero && report.seq < e.report.seq) {
    return;  // stale duplicate (e.g. duplicated frame) — keep the newer view
  }
  e.report = report;
  e.received = now;
  e.inflight = 0;  // a fresh observation supersedes local corrections
  e.self = self;
}

void LoadTable::notePlacement(net::NodeId node) {
  auto it = entries_.find(node);
  if (it != entries_.end()) ++it->second.inflight;
}

void LoadTable::remove(net::NodeId node) { entries_.erase(node); }

std::size_t LoadTable::evictSilent(sim::TimePoint now) {
  std::size_t evicted = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (!it->second.self && now - it->second.received > options_.evict_after) {
      it = entries_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  if (m_evictions_ != nullptr) *m_evictions_ += evicted;
  return evicted;
}

std::optional<net::NodeId> LoadTable::coldestPeerBelow(
    std::uint64_t low_watermark, sim::TimePoint now,
    const std::function<bool(net::NodeId)>& eligible) const {
  std::optional<net::NodeId> best;
  std::uint64_t best_load = 0;
  for (const auto& [node, e] : entries_) {
    if (e.self || stale(e, now)) continue;
    if (eligible && !eligible(node)) continue;
    const std::uint64_t load = e.effectiveLoad();
    if (load > low_watermark) continue;
    if (!best.has_value() || load < best_load) {
      best = node;
      best_load = load;
    }
  }
  return best;
}

const LoadTable::Entry* LoadTable::find(net::NodeId node) const {
  auto it = entries_.find(node);
  return it == entries_.end() ? nullptr : &it->second;
}

}  // namespace clouds::sched

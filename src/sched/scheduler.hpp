// Scheduler — turns a node's LoadTable into placement decisions, and
// Agent — the per-node bundle (monitor + table + gossip + scheduler) the
// cluster façade instantiates on every machine and workstation.
//
// A Scheduler only knows what its node has *heard* (plus a live sample of
// the node's own load, which is local knowledge): there is no global view.
// A believed-dead peer (evicted, or removed after a failed contact) is
// never chosen; an empty table is an error the caller must degrade from.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>

#include "ra/node.hpp"
#include "sched/gossip.hpp"
#include "sched/load_table.hpp"
#include "sched/monitor.hpp"
#include "sched/policy.hpp"

namespace clouds::sched {

class Scheduler {
 public:
  // Places by the table's policy. A local self-sample stays authoritative
  // for one of the table's `gossip_interval`s before place() re-samples.
  Scheduler(ra::Node& node, LoadTable& table, LoadMonitor* monitor);

  // Choose a compute server for a new thread from the table's current view.
  // `locality_hint` names a segment of the target object (policy::locality
  // prefers servers whose digest contains it); `exclude` lists nodes the
  // caller has just found dead. Fails with Errc::unreachable when the view
  // is empty — the caller degrades (and counts a fallback).
  Result<net::NodeId> place(const std::optional<Sysname>& locality_hint,
                            const std::set<net::NodeId>& exclude);

  // Positive evidence a peer is dead (crashed between selection and start):
  // drop it from the view and count the fallback.
  void noteDead(net::NodeId node);
  void countFallback();

  LoadTable& table() noexcept { return table_; }

 private:
  ra::Node& node_;
  LoadTable& table_;
  LoadMonitor* monitor_;
  std::uint64_t* m_placements_;
  std::uint64_t* m_fallbacks_;
};

class Agent {
 public:
  // With providers (compute server): samples local load and gossips it.
  // Without (data server / workstation): listens and can place, never sends.
  Agent(ra::Node& node, Options options, LoadMonitor::Providers providers);

  bool computeAgent() const noexcept { return monitor_ != nullptr; }
  LoadMonitor* monitor() noexcept { return monitor_.get(); }
  LoadTable& table() noexcept { return table_; }
  GossipAgent& gossip() noexcept { return gossip_; }
  Scheduler& scheduler() noexcept { return scheduler_; }

 private:
  std::unique_ptr<LoadMonitor> monitor_;
  LoadTable table_;
  GossipAgent gossip_;
  Scheduler scheduler_;
};

}  // namespace clouds::sched

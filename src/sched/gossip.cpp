#include "sched/gossip.hpp"

namespace clouds::sched {

GossipAgent::GossipAgent(ra::Node& node, LoadTable& table, LoadMonitor* monitor)
    : node_(node), table_(table), monitor_(monitor) {
  sim::MetricsRegistry& metrics = node_.simulation().metrics();
  m_sent_ = &metrics.counter(node_.name() + "/sched/reports_sent");
  m_received_ = &metrics.counter(node_.name() + "/sched/reports_received");
  node_.nic().setHandler(net::kProtoSched,
                         [this](sim::Process&, const net::Frame& f) { onFrame(f); });
  node_.onCrashHook([this] {
    // Load knowledge is volatile kernel state.
    table_.clear();
    if (monitor_ != nullptr) monitor_->reset();
  });
  // Listeners never tick.
  node_.spawnDaemon("sched.gossip", table_.options().gossip && monitor_ != nullptr,
                    sim::usec(5000 + 500 * static_cast<std::int64_t>(node_.id() % 97)),
                    [this, interval = table_.options().gossip_interval](sim::Process& self) {
                      broadcast(self);
                      table_.evictSilent(node_.simulation().now());
                      return interval;
                    });
}

void GossipAgent::broadcast(sim::Process& self) {
  const LoadReport report = monitor_->sample(++seq_);
  // Our own broadcast is also our freshest local knowledge.
  table_.record(report, node_.simulation().now(), /*self=*/true);
  net::Frame frame;
  frame.dst = net::kBroadcast;
  frame.protocol = net::kProtoSched;
  frame.body = report.encode();  // one buffer, shared by every receiver
  node_.nic().send(self, std::move(frame));
  ++*m_sent_;
  node_.simulation().trace(node_.name(), "sched",
                           "gossip seq " + std::to_string(report.seq) + " threads " +
                               std::to_string(report.threads));
}

void GossipAgent::onFrame(const net::Frame& frame) {
  auto report = LoadReport::decode(frame.body);
  if (!report.ok()) {
    node_.simulation().trace(node_.name(), "sched",
                             "malformed load report from node " + std::to_string(frame.src));
    return;
  }
  if (report.value().node == node_.id()) return;  // defensive: never happens on-wire
  table_.record(report.value(), node_.simulation().now(), /*self=*/false);
  ++*m_received_;
}

}  // namespace clouds::sched

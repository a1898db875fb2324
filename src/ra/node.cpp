#include "ra/node.hpp"

#include <algorithm>

namespace clouds::ra {

Node::Node(sim::Simulation& sim, const sim::CostModel& cost, net::Ethernet& ether, net::NodeId id,
           std::string name, int roles)
    : sim_(sim),
      cost_(cost),
      id_(id),
      name_(std::move(name)),
      roles_(roles),
      cpu_(cost.context_switch),
      nic_(ether.attach(id, cpu_, name_)),
      ratp_(nic_, name_) {
  cpu_.attachMetrics(sim_.metrics(), name_);
  m_fault_crashes_ = &sim_.metrics().counter(name_ + "/fault/crashes");
  m_fault_reboots_ = &sim_.metrics().counter(name_ + "/fault/reboots");
}

sim::Process& Node::spawnIsiBa(const std::string& name, std::function<void(sim::Process&)> body) {
  sim::Process& p = sim_.spawn(name_ + "." + name, std::move(body));
  isibas_.push_back(&p);
  return p;
}

void Node::spawnDaemon(const std::string& name, bool enabled, sim::Duration first,
                       std::function<sim::Duration(sim::Process&)> body) {
  if (!enabled) return;
  auto spawn = [this, name, first, body = std::move(body)] {
    spawnIsiBa(name, [this, first, body](sim::Process& self) {
      const std::uint64_t epoch = boot_epoch_;
      for (sim::Duration delay = first;; delay = body(self)) {
        sim_.scheduleDaemon(delay, [this, epoch, &self] {
          // A tick armed before a crash belongs to a dead incarnation.
          if (epoch == boot_epoch_) self.wake();
        });
        self.block();  // woken by the tick
      }
    });
  };
  onRestartHook(spawn);
  spawn();
}

void Node::addPartition(std::unique_ptr<Partition> p) {
  partitions_.push_back(std::move(p));
}

Result<Partition*> Node::partitionFor(const Sysname& segment) {
  for (auto& p : partitions_) {
    if (p->serves(segment)) return p.get();
  }
  return makeError(Errc::not_found,
                   name_ + ": no partition serves segment " + segment.toString());
}

void Node::crash() {
  if (!alive_) return;
  alive_ = false;
  ++boot_epoch_;
  ++*m_fault_crashes_;
  sim_.trace(name_, "node", "CRASH");
  nic_.crash();
  ratp_.onCrash();
  for (sim::Process* p : isibas_) p->kill();
  isibas_.clear();
  for (auto& hook : crash_hooks_) hook();
}

void Node::restart() {
  if (alive_) return;
  alive_ = true;
  ++*m_fault_reboots_;
  sim_.trace(name_, "node", "RESTART");
  nic_.restart();
  for (auto& hook : restart_hooks_) hook();
}

}  // namespace clouds::ra

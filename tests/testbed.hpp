// Shared multi-node wiring for kernel/DSM/consistency tests: N compute
// servers and M data servers on one Ethernet, mirroring the paper's
// prototype configuration (diskless Sun-3/60 compute servers + data
// servers), without the full Clouds object layer on top.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsm/client.hpp"
#include "dsm/server.hpp"
#include "net/ethernet.hpp"
#include "ra/mmu.hpp"
#include "ra/node.hpp"
#include "sim/cost_model.hpp"
#include "sim/fault.hpp"
#include "sim/simulation.hpp"
#include "store/disk_store.hpp"
#include "store_read.hpp"

namespace clouds::test {

struct Testbed {
  sim::Simulation sim;
  sim::CostModel cost;
  net::Ethernet ether{sim, cost};

  struct DataServer {
    std::unique_ptr<ra::Node> node;
    std::unique_ptr<store::DiskStore> store;
    std::unique_ptr<dsm::DsmServer> server;
  };
  struct ComputeServer {
    std::unique_ptr<ra::Node> node;
    dsm::DsmClientPartition* dsm = nullptr;  // owned by the node
    std::unique_ptr<ra::Mmu> mmu;
  };

  std::vector<DataServer> data;
  std::vector<ComputeServer> compute;

  // Node ids: data servers 100, 101, ...; compute servers 1, 2, ...
  explicit Testbed(int n_compute, int n_data, std::uint64_t seed = 42,
                   std::size_t frame_capacity = 2048)
      : sim(seed) {
    for (int i = 0; i < n_data; ++i) {
      DataServer ds;
      ds.node = std::make_unique<ra::Node>(sim, cost, ether, 100 + i, "data" + std::to_string(i),
                                           static_cast<int>(ra::NodeRole::data));
      ds.store = std::make_unique<store::DiskStore>(ds.node->id(), cost);
      ds.store->attachMetrics(sim.metrics(), ds.node->name());
      ds.server = std::make_unique<dsm::DsmServer>(*ds.node, *ds.store);
      data.push_back(std::move(ds));
    }
    for (int i = 0; i < n_compute; ++i) {
      ComputeServer cs;
      cs.node = std::make_unique<ra::Node>(sim, cost, ether, 1 + i, "cpu" + std::to_string(i),
                                           static_cast<int>(ra::NodeRole::compute));
      auto part = std::make_unique<dsm::DsmClientPartition>(*cs.node, nullptr, frame_capacity);
      cs.dsm = part.get();
      cs.node->addPartition(std::move(part));
      cs.mmu = std::make_unique<ra::Mmu>(*cs.node);
      compute.push_back(std::move(cs));
    }
  }

  // ---- Failure injection (mirrors Cluster's helpers) ----
  void notifyClientCrash(net::NodeId client) {
    for (auto& ds : data) {
      if (!ds.node->alive() || ds.node->id() == client) continue;
      ds.server->onClientCrash(client);
    }
  }
  void crashCompute(int idx) {
    ra::Node& n = *compute.at(static_cast<std::size_t>(idx)).node;
    n.crash();
    notifyClientCrash(n.id());
  }
  void restartCompute(int idx) { compute.at(static_cast<std::size_t>(idx)).node->restart(); }
  void crashData(int idx) { data.at(static_cast<std::size_t>(idx)).node->crash(); }
  void restartData(int idx) { data.at(static_cast<std::size_t>(idx)).node->restart(); }

  // Register every node (by name) and the medium with a fault plan.
  void installFaultHooks(sim::FaultPlan& plan) {
    for (auto& ds : data) {
      ra::Node* node = ds.node.get();
      store::DiskStore* st = ds.store.get();
      sim::FaultHooks hooks;
      hooks.crash = [node] { node->crash(); };
      hooks.reboot = [node] { node->restart(); };
      hooks.disk_faulty = [st](bool faulty) { st->setFaulty(faulty); };
      plan.registerTarget(node->name(), std::move(hooks));
    }
    for (auto& cs : compute) {
      ra::Node* node = cs.node.get();
      sim::FaultHooks hooks;
      hooks.crash = [this, node] {
        node->crash();
        notifyClientCrash(node->id());
      };
      hooks.reboot = [node] { node->restart(); };
      plan.registerTarget(node->name(), std::move(hooks));
    }
    sim::MediumFaultHooks medium;
    medium.partition = [this](const std::vector<std::string>& a,
                              const std::vector<std::string>& b) {
      ether.partitionGroups(resolveNames(a), resolveNames(b));
    };
    medium.heal = [this](const std::vector<std::string>& a, const std::vector<std::string>& b) {
      ether.healGroups(resolveNames(a), resolveNames(b));
    };
    medium.loss_rate = [this](double rate) { ether.setDropRate(rate); };
    plan.setMediumHooks(std::move(medium));
  }

  std::vector<net::NodeId> resolveNames(const std::vector<std::string>& names) const {
    std::vector<net::NodeId> out;
    for (const std::string& name : names) {
      net::NodeId id = net::kNoNode;
      for (const auto& ds : data) {
        if (ds.node->name() == name) id = ds.node->id();
      }
      for (const auto& cs : compute) {
        if (cs.node->name() == name) id = cs.node->id();
      }
      if (id == net::kNoNode) throw std::logic_error("Testbed: unknown node name '" + name + "'");
      out.push_back(id);
    }
    return out;
  }
};

}  // namespace clouds::test

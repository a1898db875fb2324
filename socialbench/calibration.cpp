// Paper-calibration pins (paper §4.3, experiments E1-E3). Each figure is
// measured through the same public calls bench_kernel, bench_network and
// bench_invocation make, and must equal the value the repository has always
// produced: the simulated cost model must not drift.
#include "calibration.hpp"

#include <cmath>

#include "clouds/cluster.hpp"
#include "dsm/client.hpp"
#include "dsm/server.hpp"
#include "net/ratp.hpp"
#include "ra/node.hpp"
#include "sim/sync.hpp"
#include "store/disk_store.hpp"

namespace socialbench {

using namespace clouds;

namespace {

// One compute+data machine, so page faults stay local (E1).
struct CombinedNode {
  sim::Simulation sim{42};
  sim::CostModel cost;
  net::Ethernet ether{sim, cost};
  ra::Node node{sim, cost, ether, 1, "combo", ra::NodeRole::compute | ra::NodeRole::data};
  store::DiskStore store{1, cost};
  dsm::DsmServer server{node, store};
  dsm::DsmClientPartition dsm{node, &server};
};

// Two machines on one wire (E2).
struct TwoNodes {
  sim::Simulation sim{42};
  sim::CostModel cost;
  net::Ethernet ether{sim, cost};
  sim::CpuResource cpuA{cost.context_switch};
  sim::CpuResource cpuB{cost.context_switch};
  net::Nic& nicA{ether.attach(1, cpuA, "a")};
  net::Nic& nicB{ether.attach(2, cpuB, "b")};
};

double contextSwitchMs() {
  CombinedNode m;
  constexpr int kRounds = 50;
  sim::SimSemaphore ping(1), pong(0);
  m.sim.spawn("a", [&](sim::Process& self) {
    for (int i = 0; i < kRounds; ++i) {
      ping.acquire(self);
      m.node.cpu().compute(self, sim::kZero);
      pong.release();
    }
  });
  m.sim.spawn("b", [&](sim::Process& self) {
    for (int i = 0; i < kRounds; ++i) {
      pong.acquire(self);
      m.node.cpu().compute(self, sim::kZero);
      ping.release();
    }
  });
  m.sim.run();
  return sim::toMillis(m.sim.now()) / (2.0 * kRounds);
}

double pageFaultMs(bool resident) {
  CombinedNode m;
  const Sysname seg = m.store.createSegment(64 * ra::kPageSize).value();
  constexpr int kFaults = 16;
  double fault_ms = 0;
  m.sim.spawn("toucher", [&](sim::Process& self) {
    if (resident) {
      // Non-zero pages resident in the server's buffer cache, client
      // mappings dropped.
      Bytes page(ra::kPageSize, std::byte{1});
      for (ra::PageIndex p = 0; p < kFaults; ++p) (void)m.store.writePage(self, {seg, p}, page);
      m.dsm.dropSegment(seg);
    }
    const auto start = m.sim.now();
    for (ra::PageIndex p = 0; p < kFaults; ++p) {
      (void)m.dsm.resolvePage(self, {seg, p}, ra::Access::read);
    }
    fault_ms = sim::toMillis(m.sim.now() - start) / kFaults;
  });
  m.sim.run();
  return fault_ms;
}

double ethernetRoundTripMs() {
  TwoNodes m;
  sim::TimePoint done = sim::kZero;
  m.nicB.setHandler(net::kProtoEcho, [&](sim::Process& self, const net::Frame& f) {
    m.nicB.send(self, net::Frame{net::kNoNode, f.src, net::kProtoEcho, f.payload});
  });
  m.nicA.setHandler(net::kProtoEcho, [&](sim::Process&, const net::Frame&) { done = m.sim.now(); });
  m.sim.spawn("sender", [&](sim::Process& self) {
    m.nicA.send(self, net::Frame{net::kNoNode, 2, net::kProtoEcho, Bytes(72)});
  });
  m.sim.run();
  return sim::toMillis(done);
}

// Second of two transactions (the first warms the worker pool).
double ratpMs(net::PortId port, std::size_t reply_bytes, std::size_t request_bytes) {
  TwoNodes m;
  net::RatpEndpoint client(m.nicA, "client");
  net::RatpEndpoint server(m.nicB, "server");
  server.bindService(port, [reply_bytes](sim::Process&, net::NodeId, const Bytes& req) {
    return reply_bytes == 0 ? req : Bytes(reply_bytes);
  });
  double elapsed = 0;
  m.sim.spawn("caller", [&](sim::Process& self) {
    (void)client.transact(self, 2, port, Bytes(request_bytes));
    const auto t0 = m.sim.now();
    (void)client.transact(self, 2, port, Bytes(request_bytes));
    elapsed = sim::toMillis(m.sim.now() - t0);
  });
  m.sim.run();
  return elapsed;
}

obj::ClassDef nullClass() {
  obj::ClassDef def;
  def.name = "nullobj";
  def.entry("noop", [](obj::ObjectContext&, const obj::ValueList&) -> Result<obj::Value> {
    return obj::Value{};
  });
  return def;
}

// E3: one diskless compute server, one data server, no workstation.
struct InvokeBed {
  Cluster cluster{config()};
  Sysname object;

  InvokeBed() {
    cluster.classes().registerClass(nullClass());
    object = cluster.create("nullobj", "N").value();
    (void)cluster.callObject(object, "noop");  // first use loads everything
  }
  static ClusterConfig config() {
    ClusterConfig cfg;
    cfg.compute_servers = 1;
    cfg.data_servers = 1;
    cfg.workstations = 0;
    return cfg;
  }
  double timedCallMs() {
    auto handle = cluster.runtime(0).startThread(object, "noop", {});
    const auto t0 = cluster.sim().now();
    cluster.run();
    if (!handle->done || !handle->result.ok()) return -1;
    return sim::toMillis(handle->completed_at - t0);
  }
  void makeCold() {
    cluster.runtime(0).spawnThread("cooler", [&](obj::CloudsThread& t) {
      (void)cluster.runtime(0).deactivateObject(*t.process, object);
    });
    cluster.run();
    cluster.dsmClient(0).loseVolatileState();
    cluster.store(0).clearBufferCache();
  }
};

}  // namespace

std::vector<Pin> measurePins() {
  InvokeBed bed;
  const double hot = bed.timedCallMs();
  bed.makeCold();
  const double cold = bed.timedCallMs();
  std::vector<Pin> pins = {
      {"context_switch_ms", 0.14, contextSwitchMs()},
      {"zero_fill_fault_ms", 1.50875, pageFaultMs(false)},
      {"resident_fault_ms", 0.63775, pageFaultMs(true)},
      {"ethernet_rtt_ms", 2.374, ethernetRoundTripMs()},
      {"ratp_rtt_ms", 4.8244, ratpMs(net::kPortEcho, 0, 72)},
      {"ratp_8k_page_ms", 11.5544, ratpMs(net::kPortStorage, 8192, 16)},
      {"null_invocation_hot_ms", 8.00, hot},
      {"null_invocation_cold_ms", 99.7428, cold},
  };
  for (Pin& p : pins) {
    // Simulated times are whole nanoseconds: equal means within half of one.
    p.ok = std::fabs(p.measured_ms - p.expected_ms) < 0.5e-6;
  }
  return pins;
}

}  // namespace socialbench

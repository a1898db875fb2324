// Deterministic fault injection (docs/FAULTS.md): the FaultPlan event
// grammar and validation, exact frame accounting across a NIC crash, clean
// volatile / intact durable state across a data-server reboot, disk-error
// windows, and the byte-determinism contract for a full chaos schedule over
// the multi-node testbed.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "testbed.hpp"

namespace clouds::test {
namespace {

using ra::Access;
using ra::kPageSize;

sim::FaultHooks noopHooks() {
  sim::FaultHooks h;
  h.crash = [] {};
  h.reboot = [] {};
  h.disk_faulty = [](bool) {};
  return h;
}

sim::MediumFaultHooks noopMedium() {
  sim::MediumFaultHooks m;
  m.partition = [](const std::vector<std::string>&, const std::vector<std::string>&) {};
  m.heal = [](const std::vector<std::string>&, const std::vector<std::string>&) {};
  m.loss_rate = [](double) {};
  return m;
}

TEST(FaultPlan, DescribeUsesTheEventGrammarInFiringOrder) {
  sim::Simulation sim(1);
  sim::FaultPlan plan(sim, 99);
  plan.registerTarget("n0", noopHooks());
  plan.registerTarget("n1", noopHooks());
  plan.setMediumHooks(noopMedium());
  EXPECT_TRUE(plan.hasTarget("n0"));
  EXPECT_FALSE(plan.hasTarget("ghost"));

  plan.crashAt("n0", sim::msec(80), sim::msec(40));
  plan.partitionAt({"n0"}, {"n1"}, sim::msec(10), sim::msec(5));
  plan.lossWindow(sim::msec(20), sim::msec(30), 0.3);
  plan.diskErrorWindow("n1", sim::msec(50), sim::msec(25));
  EXPECT_EQ(plan.eventCount(), 8u);

  // One line per event, firing order, stable across runs.
  const std::string expected =
      "@10000us partition {n0} | {n1}\n"
      "@15000us heal {n0} | {n1}\n"
      "@20000us loss 0.300 begin\n"
      "@50000us loss end\n"
      "@50000us disk-fail n1\n"
      "@75000us disk-heal n1\n"
      "@80000us crash n0\n"
      "@120000us reboot n0\n";
  EXPECT_EQ(plan.describe(), expected);
}

TEST(FaultPlan, ArmValidatesTheScriptAndRejectsLateEvents) {
  sim::Simulation sim(1);
  {
    // Unknown target: a configuration bug, refused up front.
    sim::FaultPlan plan(sim, 0);
    plan.crashAt("ghost", sim::msec(5));
    EXPECT_THROW(plan.arm(), std::logic_error);
  }
  {
    // Medium events without medium hooks.
    sim::FaultPlan plan(sim, 0);
    plan.lossWindow(sim::msec(1), sim::msec(2), 0.5);
    EXPECT_THROW(plan.arm(), std::logic_error);
  }
  {
    // Disk events against a target without a disk hook.
    sim::FaultPlan plan(sim, 0);
    sim::FaultHooks h = noopHooks();
    h.disk_faulty = nullptr;
    plan.registerTarget("n0", std::move(h));
    plan.diskErrorWindow("n0", sim::msec(1), sim::msec(2));
    EXPECT_THROW(plan.arm(), std::logic_error);
  }
  {
    // A plan is immutable once armed, and arms only once.
    sim::FaultPlan plan(sim, 0);
    plan.registerTarget("n0", noopHooks());
    plan.crashAt("n0", sim::msec(5));
    plan.arm();
    EXPECT_TRUE(plan.armed());
    EXPECT_THROW(plan.crashAt("n0", sim::msec(9)), std::logic_error);
    EXPECT_THROW(plan.arm(), std::logic_error);
  }
}

TEST(FaultPlan, CrashLosesExactlyTheInFlightFrames) {
  // Ten spaced frames into a NIC that crashes mid-stream and reboots: every
  // frame is either handled or counted lost — nothing double-counted,
  // nothing silently vanishes.
  sim::Simulation sim(7);
  sim::CostModel cost;
  net::Ethernet ether(sim, cost);
  sim::CpuResource ca(cost.context_switch), cb(cost.context_switch);
  net::Nic& na = ether.attach(1, ca, "a");
  net::Nic& nb = ether.attach(2, cb, "b");
  int handled = 0;
  nb.setHandler(net::kProtoEcho, [&](sim::Process&, const net::Frame&) { ++handled; });

  constexpr int kFrames = 10;
  sim.spawn("sender", [&](sim::Process& self) {
    for (int i = 0; i < kFrames; ++i) {
      na.send(self, net::Frame{net::kNoNode, 2, net::kProtoEcho, Bytes(64)});
      self.delay(sim::msec(2));
    }
  });
  sim.schedule(sim::msec(5), [&] { nb.crash(); });
  sim.schedule(sim::msec(11), [&] { nb.restart(); });
  sim.run();

  const std::uint64_t lost = sim.metrics().counterValue("b/eth/frames_lost");
  EXPECT_GT(lost, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(handled) + lost, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(sim.metrics().counterValue("b/eth/crashes"), 1u);
  EXPECT_EQ(sim.metrics().counterValue("b/eth/restarts"), 1u);
  // Losses are the NIC's, not the wire's.
  EXPECT_EQ(sim.metrics().counterValue("net/eth/frames_dropped"), 0u);
}

TEST(FaultPlan, RebootResetsPerNicReceiveFaultState) {
  // dropNextRx() is volatile per-NIC fault state: a crash/reboot cycle must
  // clear it, not leave the rebooted NIC eating frames.
  sim::Simulation sim(11);
  sim::CostModel cost;
  net::Ethernet ether(sim, cost);
  sim::CpuResource ca(cost.context_switch), cb(cost.context_switch);
  net::Nic& na = ether.attach(1, ca, "a");
  net::Nic& nb = ether.attach(2, cb, "b");
  int handled = 0;
  nb.setHandler(net::kProtoEcho, [&](sim::Process&, const net::Frame&) { ++handled; });

  nb.dropNextRx(4);
  sim.spawn("sender", [&](sim::Process& self) {
    na.send(self, net::Frame{net::kNoNode, 2, net::kProtoEcho, Bytes(32)});
    self.delay(sim::msec(3));  // eaten by the pending drop budget
    nb.crash();
    nb.restart();
    for (int i = 0; i < 3; ++i) {
      na.send(self, net::Frame{net::kNoNode, 2, net::kProtoEcho, Bytes(32)});
      self.delay(sim::msec(3));
    }
  });
  sim.run();

  EXPECT_EQ(handled, 3);  // all post-reboot frames delivered
  EXPECT_EQ(sim.metrics().counterValue("b/eth/frames_lost"), 1u);
}

TEST(FaultPlan, RebootRestoresCleanVolatileStateOverDurableStore) {
  // A data server crash wipes its volatile DSM directory and buffer cache
  // but never the DiskStore: an uncommitted client write dies with the
  // directory, the durable page content survives the reboot.
  Testbed f(1, 1);
  Sysname seg = f.data[0].store->createSegment(2 * kPageSize).value();
  f.sim.spawn("driver", [&](sim::Process& self) {
    Bytes page(kPageSize, std::byte{0x42});
    ASSERT_TRUE(f.data[0].store->writePage(self, {seg, 0}, page).ok());
    // The client takes exclusive ownership and dirties its cached copy; the
    // modification is never written back.
    auto h = f.compute[0].dsm->resolvePage(self, {seg, 0}, Access::write);
    ASSERT_TRUE(h.ok());
    h.value().data[0] = std::byte{0x99};

    f.crashData(0);
    f.restartData(0);

    // Drop the client's now-stale volatile state and re-read through DSM:
    // the rebooted server serves the intact durable content.
    f.compute[0].dsm->loseVolatileState();
    auto h2 = f.compute[0].dsm->resolvePage(self, {seg, 0}, Access::read);
    ASSERT_TRUE(h2.ok());
    EXPECT_EQ(h2.value().data[0], std::byte{0x42});
    EXPECT_EQ(h2.value().data[100], std::byte{0x42});
  });
  f.sim.run();
  EXPECT_EQ(f.sim.metrics().counterValue("data0/fault/crashes"), 1u);
  EXPECT_EQ(f.sim.metrics().counterValue("data0/fault/reboots"), 1u);
}

TEST(FaultPlan, StandaloneRebootRestartsANodeCrashedWithoutOne) {
  // rebootAt pairs with a crashAt that names no reboot time: the node stays
  // down until the standalone reboot, then serves its durable pages again.
  Testbed f(1, 1);
  Sysname seg = f.data[0].store->createSegment(kPageSize).value();
  sim::FaultPlan plan(f.sim, 5);
  f.installFaultHooks(plan);
  plan.crashAt("data0", sim::msec(100));
  plan.rebootAt("data0", sim::msec(200));
  plan.arm();
  EXPECT_EQ(plan.describe(), "@100000us crash data0\n@200000us reboot data0\n");

  bool down_between = false;
  bool up_after = false;
  f.sim.spawn("driver", [&](sim::Process& self) {
    ASSERT_TRUE(f.data[0].store->writePage(self, {seg, 0}, Bytes(kPageSize, std::byte{0x5c})).ok());
    ASSERT_LT(f.sim.now(), sim::msec(100));
    self.delay(sim::msec(150) - f.sim.now());
    down_between = !f.data[0].node->alive();
    self.delay(sim::msec(100));
    up_after = f.data[0].node->alive();
    auto h = f.compute[0].dsm->resolvePage(self, {seg, 0}, Access::read);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h.value().data[0], std::byte{0x5c});
  });
  f.sim.run();
  EXPECT_TRUE(down_between);
  EXPECT_TRUE(up_after);
  EXPECT_EQ(f.sim.metrics().counterValue("data0/fault/crashes"), 1u);
  EXPECT_EQ(f.sim.metrics().counterValue("data0/fault/reboots"), 1u);
}

TEST(FaultPlan, DiskErrorWindowSurfacesIoAndHeals) {
  Testbed f(1, 1);
  sim::FaultPlan plan(f.sim, 3);
  f.installFaultHooks(plan);
  plan.diskErrorWindow("data0", sim::msec(100), sim::msec(100));
  plan.arm();

  Sysname seg = f.data[0].store->createSegment(2 * kPageSize).value();
  f.sim.spawn("driver", [&](sim::Process& self) {
    Bytes page(kPageSize, std::byte{0x11});
    EXPECT_TRUE(f.data[0].store->writePage(self, {seg, 0}, page).ok());
    if (f.sim.now() < sim::msec(110)) self.delay(sim::msec(110) - f.sim.now());
    auto r = f.data[0].store->writePage(self, {seg, 0}, page);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::io);
    if (f.sim.now() < sim::msec(230)) self.delay(sim::msec(230) - f.sim.now());
    EXPECT_TRUE(f.data[0].store->writePage(self, {seg, 0}, page).ok());
  });
  f.sim.run();

  EXPECT_GE(f.sim.metrics().counterValue("data0/disk/io_errors"), 1u);
  EXPECT_EQ(f.sim.metrics().counterValue("fault/plan/disk_windows"), 1u);
}

struct ChaosRun {
  std::string metrics_json;
  std::uint64_t trace_digest = 0;
  std::size_t events = 0;
};

// A full schedule — scripted crash/reboot, partition, loss window, disk
// window, plus plan-seeded random crashes — over a 2-compute/2-data testbed
// with DSM writers on both compute nodes.
ChaosRun runChaosSchedule(std::uint64_t seed) {
  Testbed f(2, 2, seed);
  Sysname seg_a = f.data[0].store->createSegment(4 * kPageSize).value();
  Sysname seg_b = f.data[1].store->createSegment(4 * kPageSize).value();

  sim::FaultPlan plan(f.sim, seed ^ 0xFA);
  f.installFaultHooks(plan);
  plan.crashAt("cpu1", sim::msec(60), sim::msec(80));
  plan.partitionAt({"cpu0"}, {"data1"}, sim::msec(30), sim::msec(50));
  plan.lossWindow(sim::msec(120), sim::msec(40), 0.1);
  plan.diskErrorWindow("data0", sim::msec(150), sim::msec(40));
  plan.randomCrashes({"data1"}, 2, sim::msec(200), sim::msec(500), sim::msec(20),
                     sim::msec(60));
  plan.arm();

  for (int w = 0; w < 2; ++w) {
    dsm::DsmClientPartition* dsmp = f.compute[static_cast<std::size_t>(w)].dsm;
    const Sysname seg = (w == 0) ? seg_a : seg_b;
    // IsiBas die with their node's crash — exactly like real kernel threads.
    f.compute[static_cast<std::size_t>(w)].node->spawnIsiBa(
        "writer", [dsmp, seg](sim::Process& self) {
          for (std::uint32_t i = 0; i < 12; ++i) {
            (void)dsmp->resolvePage(self, {seg, i % 3}, Access::write);
            self.delay(sim::msec(9));
          }
        });
  }
  f.sim.run();

  ChaosRun out;
  out.metrics_json = f.sim.metrics().toJson();
  out.trace_digest = f.sim.tracer().digest();
  out.events = plan.eventCount();
  return out;
}

TEST(FaultPlan, SameSeedAndPlanAreByteIdentical) {
  const ChaosRun a = runChaosSchedule(5);
  const ChaosRun b = runChaosSchedule(5);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  // The schedule actually fired faults (visible in the plan's own counters,
  // embedded in the compared snapshot).
  EXPECT_NE(a.metrics_json.find("fault/plan/crashes"), std::string::npos);
}

}  // namespace
}  // namespace clouds::test

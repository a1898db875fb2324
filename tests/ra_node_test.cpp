// Node lifecycle: the boot epoch a crash bumps, and the daemon IsiBas that
// die with the node and come back with it.
#include <gtest/gtest.h>

#include <vector>

#include "net/ethernet.hpp"
#include "ra/node.hpp"
#include "sim/cost_model.hpp"
#include "sim/simulation.hpp"

namespace clouds::ra {
namespace {

using sim::msec;

struct BareNode {
  sim::Simulation sim;
  sim::CostModel cost;
  net::Ethernet ether{sim, cost};
  Node node{sim, cost, ether, 1, "n0", static_cast<int>(NodeRole::compute)};
};

TEST(NodeLifecycle, BootEpochMovesOncePerCrash) {
  BareNode b;
  const std::uint64_t& crashes = b.sim.metrics().counter("n0/fault/crashes");
  EXPECT_EQ(b.node.bootEpoch(), 0u);
  b.node.crash();
  EXPECT_EQ(b.node.bootEpoch(), 1u);
  b.node.crash();  // already down
  EXPECT_EQ(b.node.bootEpoch(), 1u);
  b.node.restart();
  EXPECT_EQ(b.node.bootEpoch(), 1u);
  b.node.restart();  // already up
  b.node.crash();
  EXPECT_EQ(b.node.bootEpoch(), 2u);
  EXPECT_EQ(b.node.bootEpoch(), crashes);
}

TEST(NodeDaemon, TicksAtFirstDelayThenAtReturnedDelays) {
  BareNode b;
  std::vector<sim::TimePoint> ticks;
  const std::vector<sim::Duration> delays = {msec(3), msec(7)};
  b.node.spawnDaemon("d", true, msec(5), [&](sim::Process&) {
    ticks.push_back(b.sim.now());
    return ticks.size() <= delays.size() ? delays[ticks.size() - 1] : msec(10);
  });
  // Daemon ticks never keep an unbounded run alive.
  b.sim.run();
  EXPECT_TRUE(ticks.empty());
  b.sim.runFor(msec(30));
  const std::vector<sim::TimePoint> want = {msec(5), msec(8), msec(15), msec(25)};
  EXPECT_EQ(ticks, want);
}

TEST(NodeDaemon, TickArmedBeforeCrashNeverWakesRespawnedLoop) {
  BareNode b;
  int wakes = 0;
  b.node.spawnDaemon("d", true, msec(10), [&](sim::Process&) {
    ++wakes;
    return msec(10);
  });
  b.sim.runFor(msec(4));
  b.node.crash();  // the first loop's tick stays armed for t = 10 ms
  b.sim.runFor(msec(1));
  b.node.restart();  // the respawned loop arms its first tick for t = 15 ms
  b.sim.runFor(msec(9));  // to t = 14 ms, past the stale tick
  EXPECT_EQ(wakes, 0);
  b.sim.runFor(msec(2));  // to t = 16 ms
  EXPECT_EQ(wakes, 1);
}

TEST(NodeDaemon, DisabledDaemonSpawnsNothing) {
  BareNode b;
  const std::size_t before = b.sim.liveProcessCount();
  bool ran = false;
  b.node.spawnDaemon("d", false, msec(1), [&](sim::Process&) {
    ran = true;
    return msec(1);
  });
  EXPECT_EQ(b.sim.liveProcessCount(), before);
  b.node.crash();
  b.node.restart();
  b.sim.runFor(msec(10));
  EXPECT_EQ(b.sim.liveProcessCount(), before);
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace clouds::ra

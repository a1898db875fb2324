// Combined compute+data machines (paper §3): "a machine with a disk can
// simultaneously be a compute and data server. This enhances computing
// performance, since data access via local disk is faster than data access
// over a network."
#include <gtest/gtest.h>

#include "clouds/cluster.hpp"
#include "clouds/standard_classes.hpp"

namespace clouds {
namespace {

using obj::Value;

ClusterConfig combinedConfig() {
  ClusterConfig cfg;
  cfg.compute_servers = 1;  // diskless, index 0
  cfg.data_servers = 1;     // pure data, index 0
  cfg.combined_servers = 1; // compute index 1 == data index 1
  cfg.workstations = 0;
  return cfg;
}

TEST(CombinedNodes, TopologyViewsAreConsistent) {
  Cluster c(combinedConfig());
  EXPECT_EQ(c.computeCount(), 2);
  EXPECT_EQ(c.dataCount(), 2);
  // The combined machine appears in both views as the same node.
  EXPECT_EQ(&c.computeNode(1), &c.dataNode(1));
  EXPECT_NE(&c.computeNode(0), &c.dataNode(0));
}

TEST(CombinedNodes, ObjectsWorkFromBothRoles) {
  Cluster c(combinedConfig());
  obj::samples::registerAll(c.classes());
  // Object homed on the combined machine's own disk.
  ASSERT_TRUE(c.create("counter", "Local", /*data_idx=*/1, /*compute_idx=*/1).ok());
  ASSERT_TRUE(c.call("Local", "add", {5}, 1).ok());
  // Visible from the diskless node too (over the network).
  EXPECT_EQ(c.call("Local", "value", {}, 0).value(), Value{5});
  // And coherent back again.
  ASSERT_TRUE(c.call("Local", "add", {1}, 0).ok());
  EXPECT_EQ(c.call("Local", "value", {}, 1).value(), Value{6});
}

TEST(CombinedNodes, LocalDiskAccessIsFasterThanNetwork) {
  // The paper's performance claim, measured: a cold invocation of an object
  // homed on the invoking machine's own disk vs. the same cold invocation
  // from a diskless machine across the Ethernet.
  Cluster c(combinedConfig());
  obj::samples::registerAll(c.classes());
  ASSERT_TRUE(c.create("counter", "C", /*data_idx=*/1).ok());

  auto coldCall = [&](int compute_idx) {
    // Deactivate everywhere and drop caches so the call is cold.
    for (int i = 0; i < c.computeCount(); ++i) {
      c.runtime(i).spawnThread("cool", [&, i](obj::CloudsThread& t) {
        auto target = c.runtime(i).resolveTarget(t, "C");
        if (target.ok()) (void)c.runtime(i).deactivateObject(*t.process, target.value());
      });
      c.run();
      c.dsmClient(i).loseVolatileState();
    }
    c.store(1).clearBufferCache();
    auto h = c.start("C", "value", {}, compute_idx);
    const auto t0 = c.sim().now();
    c.run();
    EXPECT_TRUE(h->done && h->result.ok());
    return sim::toMillis(h->completed_at - t0);
  };

  const double local_ms = coldCall(1);   // combined machine: its own disk
  const double remote_ms = coldCall(0);  // diskless machine: over the wire
  EXPECT_LT(local_ms, remote_ms);
  EXPECT_GT(remote_ms - local_ms, 5.0);  // network pages cost real time
}

TEST(CombinedNodes, GcpCommitWorksWithLocalParticipant) {
  Cluster c(combinedConfig());
  obj::samples::registerAll(c.classes());
  ASSERT_TRUE(c.create("bank", "Bank", /*data_idx=*/1).ok());
  ASSERT_TRUE(c.call("Bank", "init", {4, 100}, 1).ok());
  ASSERT_TRUE(c.call("Bank", "transfer", {0, 1, 30}, 1).ok());
  EXPECT_EQ(c.call("Bank", "total", {}, 0).value(), Value{400});
  EXPECT_EQ(c.call("Bank", "balance", {1}, 0).value(), Value{130});
  // Rollback path on the combined node.
  EXPECT_FALSE(c.call("Bank", "transfer_fail", {0, 1, 10}, 1).ok());
  EXPECT_EQ(c.call("Bank", "total", {}, 1).value(), Value{400});
}

TEST(CombinedNodes, StatsCountEachEndpointOnce) {
  // A combined machine sits in both the compute and the data view; its RaTP
  // endpoint must still count once in the cluster totals.
  ClusterConfig cfg;
  cfg.compute_servers = 0;
  cfg.data_servers = 0;
  cfg.combined_servers = 2;
  cfg.workstations = 0;
  Cluster c(cfg);
  obj::samples::registerAll(c.classes());
  ASSERT_TRUE(c.create("counter", "C0", /*data_idx=*/0).ok());
  ASSERT_TRUE(c.create("counter", "C1", /*data_idx=*/1).ok());
  c.ether().setDropRate(0.05);  // lost frames force retransmissions
  for (int i = 0; i < 10; ++i) {
    (void)c.call("C0", "add", {1}, 1);
    (void)c.call("C1", "add", {1}, 0);
  }

  std::uint64_t endpoints = 0;  // every machine is compute node i
  for (int i = 0; i < c.computeCount(); ++i) {
    endpoints += c.sim().metrics().counterValue(c.computeNode(i).name() + "/ratp/retransmits");
  }
  EXPECT_GT(endpoints, 0u);
  EXPECT_EQ(c.stats().retransmissions, endpoints);
}

// A combined machine dies whole, whichever view names it in the crash. Its
// rebooted data server forgets whom it granted copies, so it can never
// invalidate them: the survivors must drop the copies homed there, as they
// do when the data view names the crash.
TEST(CombinedNodes, CrashThroughEitherViewDropsTheCopiesItGranted) {
  for (const bool via_compute_view : {true, false}) {
    SCOPED_TRACE(via_compute_view ? "crashCompute" : "crashData");
    ClusterConfig cfg;
    cfg.compute_servers = 0;
    cfg.data_servers = 0;
    cfg.combined_servers = 2;  // compute index i == data index i
    cfg.workstations = 0;
    Cluster c(cfg);
    obj::samples::registerAll(c.classes());
    const auto counter = c.create("counter", "C", /*data_idx=*/0, /*compute_idx=*/0);
    ASSERT_TRUE(counter.ok());
    ASSERT_TRUE(c.callObject(counter.value(), "add", {5}, 0).ok());
    ASSERT_TRUE(c.sync().ok());
    EXPECT_EQ(c.callObject(counter.value(), "value", {}, 1).value(), Value{5});

    if (via_compute_view) {
      c.crashCompute(0);
    } else {
      c.crashData(0);
    }
    c.restartCompute(0);
    ASSERT_TRUE(c.callObject(counter.value(), "add", {100}, 0).ok());
    ASSERT_TRUE(c.sync().ok());
    EXPECT_EQ(c.callObject(counter.value(), "value", {}, 1).value(), Value{105});
  }
}

}  // namespace
}  // namespace clouds

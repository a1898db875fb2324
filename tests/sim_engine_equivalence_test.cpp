// Engine equivalence: the fiber engine must be indistinguishable from the
// reference thread engine. The two engines only change how control moves
// between the scheduler and a process (kernel threads + condvars vs.
// user-space stack switches); every observable of the simulated universe —
// trace digest, metrics JSON, gossip placement sequence, migration protocol
// transcript — must be byte-identical for a given seed. This is the proof
// that lets the rest of the repo run on fibers (docs/SIMCORE.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "clouds/cluster.hpp"
#include "clouds/standard_classes.hpp"
#include "common/bytes.hpp"

namespace clouds {
namespace {

constexpr std::uint64_t kSeeds[] = {20240705, 20260808, 97};

// Golden pins, one per seed: what each workload produced on both engines
// when the pins were recorded — the trace digest and clouds::fnv1a of the
// metrics JSON (and of the migration transcript). Engine equivalence alone
// cannot notice a change that moves both engines alike; these can. A change
// meant to move the simulated universe re-records them and names the cause.
struct Pin {
  std::uint64_t digest;
  std::uint64_t metrics;
  std::uint64_t transcript = 0;
};
constexpr Pin kFullClusterPins[] = {
    {0x24ba1f1f9a3a1bc0ull, 0xaf8e4195397dd5a7ull},
    {0x8fe66c28e04b1774ull, 0x2f82c7b47932fb13ull},
    {0xf52edc972d1bb869ull, 0x8ec64217a2a5eb67ull},
};
constexpr Pin kMigrationPins[] = {
    {0xad894c4cfcac8878ull, 0x3cabdc0c63175184ull, 0x7097f9f4aa29f5d7ull},
    {0xad894c4cfcac8878ull, 0x3cabdc0c63175184ull, 0x7097f9f4aa29f5d7ull},
    {0xad894c4cfcac8878ull, 0x3cabdc0c63175184ull, 0x7097f9f4aa29f5d7ull},
};
constexpr Pin kCrashPins[] = {
    {0x75832bd090ec568full, 0x51c9674c8d9f94d8ull},
    {0x70ae126c43ed83baull, 0xd5bdbb19cfb56e4cull},
    {0x32ff2eaaa655a49aull, 0x31fdfce6e761c1a1ull},
};

// The full-cluster workload from determinism_test: contended gcp
// increments and bank transfers (backoff consumes the rng), then three
// gossip-fed placements.
struct WorkloadResult {
  std::uint64_t digest = 0;
  std::size_t trace_count = 0;
  std::int64_t counter = 0;
  sim::TimePoint end{};
  std::string metrics_json;
  std::string placements;
};

WorkloadResult runWorkload(std::uint64_t seed, sim::Engine engine) {
  ClusterConfig cfg;
  cfg.compute_servers = 2;
  cfg.data_servers = 2;
  cfg.seed = seed;
  cfg.engine = engine;
  Cluster cluster(cfg);
  obj::samples::registerAll(cluster.classes());

  (void)cluster.create("counter", "C", 0);
  (void)cluster.create("bank", "Bank", 1);
  (void)cluster.call("Bank", "init", {8, 100});
  std::vector<std::shared_ptr<obj::Runtime::ThreadHandle>> handles;
  for (int i = 0; i < 5; ++i) handles.push_back(cluster.start("C", "add_gcp", {1}, i % 2));
  for (int i = 0; i < 4; ++i) {
    handles.push_back(cluster.start("Bank", "transfer", {i, (i + 1) % 8, 5}, i % 2));
  }
  cluster.run();

  WorkloadResult out;
  for (int i = 0; i < 3; ++i) {
    const int idx = cluster.scheduleComputeServer();
    out.placements.push_back(static_cast<char>('0' + idx));
    handles.push_back(cluster.start("C", "add_gcp", {1}, idx));
    cluster.run();
  }
  out.counter = cluster.call("C", "value").value().asInt().valueOr(-1);
  out.digest = cluster.sim().tracer().digest();
  out.trace_count = cluster.sim().tracer().count();
  out.end = cluster.sim().now();
  out.metrics_json = cluster.sim().metrics().toJson();
  return out;
}

TEST(EngineEquivalence, FullClusterWorkloadIsByteIdentical) {
  for (std::size_t i = 0; i < std::size(kSeeds); ++i) {
    const std::uint64_t seed = kSeeds[i];
    SCOPED_TRACE("seed " + std::to_string(seed));
    const WorkloadResult threads = runWorkload(seed, sim::Engine::threads);
    const WorkloadResult fibers = runWorkload(seed, sim::Engine::fibers);
    EXPECT_EQ(fibers.digest, kFullClusterPins[i].digest);
    EXPECT_EQ(fnv1a(fibers.metrics_json), kFullClusterPins[i].metrics);
    EXPECT_EQ(threads.digest, fibers.digest);
    EXPECT_EQ(threads.trace_count, fibers.trace_count);
    EXPECT_EQ(threads.counter, fibers.counter);
    EXPECT_EQ(threads.end, fibers.end);
    EXPECT_EQ(threads.metrics_json, fibers.metrics_json);
    EXPECT_EQ(threads.placements, fibers.placements);
    EXPECT_EQ(threads.counter, 8);  // the workload itself succeeded on both
  }
}

// The live-migration workload: a daemon-driven handoff under skewed load.
// Its protocol transcript — every state transition, begin, and commit
// line — must replay byte for byte across engines.
struct MigrationResult {
  std::uint64_t digest = 0;
  std::string metrics_json;
  std::string events;
  std::uint64_t committed = 0;
  std::int64_t probe = -1;
};

MigrationResult runMigrationWorkload(std::uint64_t seed, sim::Engine engine) {
  ClusterConfig cfg;
  cfg.compute_servers = 0;
  cfg.data_servers = 0;
  cfg.combined_servers = 2;
  cfg.workstations = 0;
  cfg.seed = seed;
  cfg.engine = engine;
  cfg.sched.gossip_interval = sim::msec(10);
  cfg.migrate.enabled = true;
  cfg.migrate.interval = sim::msec(20);
  cfg.migrate.cooldown = sim::msec(50);
  cfg.migrate.high_watermark = 3;
  cfg.migrate.low_watermark = 1;
  cfg.migrate.min_heat = 1;
  Cluster cluster(cfg);
  obj::samples::registerAll(cluster.classes());

  const auto sys = cluster.create("counter", "H", /*data_idx=*/0, /*compute_idx=*/0);
  EXPECT_TRUE(sys.ok());
  std::vector<std::shared_ptr<obj::Runtime::ThreadHandle>> handles;
  for (int i = 0; i < 8; ++i) handles.push_back(cluster.start("H", "add", {1}, 0));
  cluster.run();

  MigrationResult out;
  out.probe = cluster.call("H", "value", {}, 1).value().asInt().valueOr(-1);
  out.events = cluster.migrationEvents();
  out.committed = cluster.stats().migrations_committed;
  out.digest = cluster.sim().tracer().digest();
  out.metrics_json = cluster.sim().metrics().toJson();
  return out;
}

TEST(EngineEquivalence, MigrationTranscriptIsByteIdentical) {
  for (std::size_t i = 0; i < std::size(kSeeds); ++i) {
    const std::uint64_t seed = kSeeds[i];
    SCOPED_TRACE("seed " + std::to_string(seed));
    const MigrationResult threads = runMigrationWorkload(seed, sim::Engine::threads);
    const MigrationResult fibers = runMigrationWorkload(seed, sim::Engine::fibers);
    EXPECT_EQ(fibers.digest, kMigrationPins[i].digest);
    EXPECT_EQ(fnv1a(fibers.metrics_json), kMigrationPins[i].metrics);
    EXPECT_EQ(fnv1a(fibers.events), kMigrationPins[i].transcript);
    EXPECT_EQ(threads.events, fibers.events);
    EXPECT_EQ(threads.digest, fibers.digest);
    EXPECT_EQ(threads.metrics_json, fibers.metrics_json);
    EXPECT_EQ(threads.committed, fibers.committed);
    EXPECT_EQ(threads.probe, fibers.probe);
  }
}

// Crash + recovery paths exercise kill()/ProcessKilled unwinding through
// every protocol layer; the engines must agree there too.
struct CrashResult {
  std::uint64_t digest = 0;
  std::string metrics_json;
  std::int64_t counter = 0;
};

CrashResult runCrashWorkload(std::uint64_t seed, sim::Engine engine) {
  ClusterConfig cfg;
  cfg.compute_servers = 2;
  cfg.data_servers = 1;
  cfg.seed = seed;
  cfg.engine = engine;
  Cluster cluster(cfg);
  obj::samples::registerAll(cluster.classes());

  (void)cluster.create("counter", "C", 0);
  std::vector<std::shared_ptr<obj::Runtime::ThreadHandle>> handles;
  for (int i = 0; i < 4; ++i) handles.push_back(cluster.start("C", "add_gcp", {1}, i % 2));
  cluster.sim().schedule(sim::msec(2), [&] { cluster.crashCompute(1); });
  cluster.run();
  cluster.restartCompute(1);
  for (int i = 0; i < 2; ++i) handles.push_back(cluster.start("C", "add_gcp", {1}, 1));
  cluster.run();

  CrashResult out;
  out.counter = cluster.call("C", "value").value().asInt().valueOr(-1);
  out.digest = cluster.sim().tracer().digest();
  out.metrics_json = cluster.sim().metrics().toJson();
  return out;
}

TEST(EngineEquivalence, CrashRecoveryIsByteIdentical) {
  for (std::size_t i = 0; i < std::size(kSeeds); ++i) {
    const std::uint64_t seed = kSeeds[i];
    SCOPED_TRACE("seed " + std::to_string(seed));
    const CrashResult threads = runCrashWorkload(seed, sim::Engine::threads);
    const CrashResult fibers = runCrashWorkload(seed, sim::Engine::fibers);
    EXPECT_EQ(fibers.digest, kCrashPins[i].digest);
    EXPECT_EQ(fnv1a(fibers.metrics_json), kCrashPins[i].metrics);
    EXPECT_EQ(threads.digest, fibers.digest);
    EXPECT_EQ(threads.metrics_json, fibers.metrics_json);
    EXPECT_EQ(threads.counter, fibers.counter);
  }
}

}  // namespace
}  // namespace clouds

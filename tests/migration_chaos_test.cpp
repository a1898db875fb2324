// Migration chaos suite (CTest label: chaos).
//
// Two attack surfaces:
//
//  1. A scripted crash MATRIX: every {victim} x {protocol state} pair —
//     migrator node, source store, and target store, each killed the moment
//     the migration FSM enters draining / shipping / committing / adopted —
//     followed by full recovery and an exactly-once ownership audit: the
//     object is reachable through every alias it ever had, a write through
//     the original sysname is visible through all of them, and its state is
//     never lost or duplicated. The durable header page alone decides
//     ownership (docs/MIGRATION.md crash matrix).
//
//  2. Seeded FaultPlan SWEEPS: the migration daemon runs live under skewed
//     load while crashes, a partition, and a loss window hit the cluster.
//     Same audit, plus determinism: byte-identical metrics JSON, trace
//     digest, and migration transcript across same-seed reruns.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "clouds/cluster.hpp"
#include "clouds/context.hpp"
#include "clouds/standard_classes.hpp"
#include "migrate/protocol.hpp"
#include "migrate/state.hpp"
#include "sim/fault.hpp"

namespace clouds {
namespace {

using obj::Value;

// Fresh read of a header page through compute 0's DSM (cache dropped first,
// so the durable store copy is what we see).
Bytes readHeaderPage(Cluster& c, const Sysname& header) {
  Bytes out;
  c.runtime(0).spawnThread("probe:" + header.toString(), [&](obj::CloudsThread& t) {
    c.dsmClient(0).dropSegment(header);
    auto p = c.dsmClient(0).resolvePage(*t.process, {header, 0}, ra::Access::read);
    if (p.ok()) {
      out.resize(ra::kPageSize);
      std::memcpy(out.data(), p.value().data(), ra::kPageSize);
    }
  });
  c.run();
  return out;
}

// The exactly-once ownership audit. `base` is the counter value every
// surviving replica-of-one must hold. Walks the forward chain from the
// original sysname, then proves all aliases name ONE object: a write
// through the original is visible through every alias (no duplicate), and
// the value is exactly base+1 afterwards (no lost segment, no double
// application).
void auditExactlyOnce(Cluster& c, const Sysname& original, std::int64_t base) {
  std::vector<Sysname> aliases{original};
  Sysname cur = original;
  for (int hop = 0; hop < migrate::kMaxForwardHops; ++hop) {
    const Bytes page = readHeaderPage(c, cur);
    ASSERT_FALSE(page.empty()) << "header page unreadable: " << cur.toString();
    if (!migrate::isForwardPage(page)) break;
    auto rec = migrate::ForwardRecord::decode(page);
    ASSERT_TRUE(rec.ok()) << rec.error().toString();
    cur = rec.value().new_header;
    aliases.push_back(cur);
  }

  // Not lost: the object answers through the original sysname.
  auto before = c.callObject(original, "value", {}, 0);
  ASSERT_TRUE(before.ok()) << before.error().toString();
  EXPECT_EQ(before.value(), Value{base});

  // Not duplicated: one write through the original...
  ASSERT_TRUE(c.callObject(original, "add", {1}, 0).ok());
  // ...is seen exactly once through EVERY alias, from every compute server.
  for (const Sysname& alias : aliases) {
    for (int cpu = 0; cpu < c.computeCount(); ++cpu) {
      auto r = c.callObject(alias, "value", {}, cpu);
      ASSERT_TRUE(r.ok()) << alias.toString() << " via cpu " << cpu << ": "
                          << r.error().toString();
      EXPECT_EQ(r.value(), Value{base + 1})
          << alias.toString() << " via cpu " << cpu;
    }
  }
}

// ------------------------------------------------- scripted crash matrix

enum class Victim { migrator, source, source_late, target };

const char* victimName(Victim v) {
  switch (v) {
    case Victim::migrator:
      return "migrator";
    case Victim::source:
      return "source";
    case Victim::source_late:
      return "source_late";
    case Victim::target:
      return "target";
  }
  return "?";
}

struct CrashScenario {
  Victim victim;
  migrate::State at;
};

// Topology: cpu0 drives the migration; data0 holds the object; data1
// adopts it. Distinct nodes, so each victim dies alone.
void runCrashScenario(const CrashScenario& sc, std::uint64_t seed) {
  SCOPED_TRACE(std::string(victimName(sc.victim)) + " killed at state " +
               migrate::stateName(sc.at) + ", seed " + std::to_string(seed));
  ClusterConfig cfg;
  cfg.compute_servers = 1;
  cfg.data_servers = 2;
  cfg.workstations = 0;
  cfg.seed = seed;
  Cluster c(cfg);
  obj::samples::registerAll(c.classes());

  const auto orig = c.create("counter", "C", /*data_idx=*/0, /*compute_idx=*/0);
  ASSERT_TRUE(orig.ok());
  ASSERT_TRUE(c.call("C", "add", {5}, 0).ok());
  // The add is an s-label write: durable only after a flush. Without this,
  // crashing the migrator node would (correctly!) lose the cached 5 — s
  // semantics, not a migration defect — and the audit below would misfire.
  ASSERT_TRUE(c.sync().ok());

  bool fired = false;
  c.migrator(0).onStateChange([&](migrate::State s) {
    if (s != sc.at || fired) return;
    fired = true;
    // source_late waits long enough for the prepare to land, aiming the
    // crash at the decision window (the in-doubt corner of the matrix);
    // everyone else dies at the first block point after entering the state.
    const sim::Duration delay =
        sc.victim == Victim::source_late ? sim::msec(5) : sim::usec(1);
    c.sim().scheduleDaemon(delay, [&] {
      switch (sc.victim) {
        case Victim::migrator:
          c.crashCompute(0);
          break;
        case Victim::source:
        case Victim::source_late:
          c.crashData(0);
          break;
        case Victim::target:
          c.crashData(1);
          break;
      }
    });
  });

  const auto moved = c.migrateObjectSync(0, orig.value(), /*target_data_idx=*/1);
  EXPECT_TRUE(fired);
  // Whatever the outcome (committed before the crash landed, aborted, in
  // doubt, or the driver killed mid-protocol), the protocol must never
  // wedge the FSM or leave the object draining.
  (void)moved;

  // Full recovery, then the audit.
  if (!c.computeNode(0).alive()) c.restartCompute(0);
  if (!c.dataNode(0).alive()) c.restartData(0);
  if (!c.dataNode(1).alive()) c.restartData(1);
  c.run();
  EXPECT_EQ(c.migrator(0).state(), migrate::State::idle);
  EXPECT_FALSE(c.runtime(0).draining(orig.value()));
  auditExactlyOnce(c, orig.value(), 5);
}

class MigrationCrashMatrix : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MigrationCrashMatrix, EveryVictimAtEveryStateKeepsExactlyOneOwner) {
  const std::vector<CrashScenario> matrix = {
      {Victim::migrator, migrate::State::draining},
      {Victim::migrator, migrate::State::shipping},
      {Victim::migrator, migrate::State::committing},
      {Victim::migrator, migrate::State::adopted},
      {Victim::source, migrate::State::shipping},
      {Victim::source, migrate::State::committing},
      {Victim::source_late, migrate::State::committing},
      {Victim::target, migrate::State::shipping},
      {Victim::target, migrate::State::committing},
      {Victim::target, migrate::State::adopted},
  };
  for (const CrashScenario& sc : matrix) runCrashScenario(sc, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationCrashMatrix,
                         ::testing::Values(0xC10D5EEDULL, 1988u, 77u));

// --------------------------------------------------- seeded fault sweeps

obj::ClassDef hotClass() {
  obj::ClassDef def;
  def.name = "hot";
  def.constructor = [](obj::ObjectContext& ctx, const obj::ValueList&) -> Result<Value> {
    ctx.put<std::int64_t>(0, 0);
    return Value{};
  };
  def.entry("value", [](obj::ObjectContext& ctx, const obj::ValueList&) -> Result<Value> {
    return Value{ctx.get<std::int64_t>(0)};
  });
  def.entry("add", [](obj::ObjectContext& ctx, const obj::ValueList& args) -> Result<Value> {
    const std::int64_t n = args.empty() ? 1 : args[0].intOr(1);
    const std::int64_t v = ctx.get<std::int64_t>(0);
    ctx.put<std::int64_t>(0, v + n);
    return Value{v + n};
  });
  // Sustained CPU pressure: what makes the daemon's high watermark trip.
  def.entry("spin", [](obj::ObjectContext& ctx, const obj::ValueList&) -> Result<Value> {
    ctx.compute(sim::msec(15));
    return Value{true};
  });
  return def;
}

struct SweepOutcome {
  std::uint64_t started = 0;
  std::uint64_t committed = 0;
  std::string events;
  std::string metrics_json;
  std::uint64_t trace_digest = 0;
};

// Two combined servers: the daemon on combo0 re-homes the hot object onto
// combo1's disk while the plan crashes combo1, partitions the pair, and
// drops frames. Every crash reboots, so the final audit runs on a whole
// cluster.
SweepOutcome runSweep(std::uint64_t seed, Sysname* orig_out, Cluster** keep = nullptr) {
  ClusterConfig cfg;
  cfg.compute_servers = 0;
  cfg.data_servers = 0;
  cfg.combined_servers = 2;
  cfg.workstations = 0;
  cfg.seed = seed;
  cfg.sched.gossip_interval = sim::msec(10);
  cfg.migrate.enabled = true;
  cfg.migrate.interval = sim::msec(20);
  cfg.migrate.cooldown = sim::msec(50);
  cfg.migrate.high_watermark = 3;
  cfg.migrate.low_watermark = 1;
  cfg.migrate.min_heat = 1;
  static std::unique_ptr<Cluster> holder;  // keeps the audited cluster alive
  holder = std::make_unique<Cluster>(cfg);
  Cluster& c = *holder;
  c.classes().registerClass(hotClass());

  const auto orig = c.create("hot", "H", /*data_idx=*/0, /*compute_idx=*/0);
  EXPECT_TRUE(orig.ok());
  *orig_out = orig.value();

  sim::FaultPlan plan(c.sim(), seed * 0x9E3779B97F4A7C15ULL + 1);
  c.installFaultHooks(plan);
  plan.randomCrashes({"combo1"}, 1, sim::msec(60), sim::msec(600), sim::msec(40),
                     sim::msec(150));
  plan.partitionAt({"combo0"}, {"combo1"}, sim::msec(250), sim::msec(120));
  plan.lossWindow(sim::msec(400), sim::msec(200), 0.05);
  plan.arm();

  std::vector<std::shared_ptr<obj::Runtime::ThreadHandle>> handles;
  for (int i = 0; i < 8; ++i) handles.push_back(c.start("H", "spin", {}, 0));
  c.run();

  // Crashes in the plan come with reboots: whole cluster again.
  EXPECT_TRUE(c.computeNode(0).alive());
  EXPECT_TRUE(c.computeNode(1).alive());

  SweepOutcome out;
  out.started = c.stats().migrations_started;
  out.committed = c.stats().migrations_committed;
  out.events = c.migrationEvents();
  out.metrics_json = c.sim().metrics().toJson();
  out.trace_digest = c.sim().tracer().digest();
  if (keep != nullptr) *keep = &c;
  return out;
}

class MigrationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MigrationSweep, OwnershipSurvivesFaultsAndRunsAreDeterministic) {
  Sysname orig_a;
  const SweepOutcome a = runSweep(GetParam(), &orig_a);

  Sysname orig_b;
  Cluster* c = nullptr;
  const SweepOutcome b = runSweep(GetParam(), &orig_b, &c);
  ASSERT_NE(c, nullptr);

  // Determinism: the fault-riddled run is a pure function of the seed —
  // byte-identical metrics, trace digest, and migration transcript.
  EXPECT_EQ(orig_a, orig_b);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.started, b.started);
  EXPECT_EQ(a.committed, b.committed);
  // The plan must not have starved the daemon into irrelevance: pressure
  // really did trigger the protocol under fire.
  EXPECT_GE(a.started, 1u);

  // Exactly-once ownership after the dust settles, whatever mix of
  // committed / aborted / in-doubt attempts the plan produced.
  auditExactlyOnce(*c, orig_b, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationSweep,
                         ::testing::Values(0xC10D5EEDULL, 1988u, 77u));

}  // namespace
}  // namespace clouds

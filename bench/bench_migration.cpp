// E9 — live object migration under load pressure (`src/migrate`).
//
// The paper's object mobility story (§2.1 "objects can be moved from node
// to node"; §3.2 load-dependent scheduling) measured as a before/after: a
// skewed stream against 4 combined servers whose placement is
// locality-driven. Every hot object lives on one data server, and the
// first server to cache them wins every subsequent placement — the
// locality policy herds the entire stream onto one CPU, the
// pathological-but-natural configuration migration exists to fix.
//
//   off  the herd stays: one server runs the whole stream serialized while
//        three sit idle.
//   on   the herded server trips the daemon's high watermark within one
//        gossip round of the first invocations. The drain + flush
//        immediately stops its digest advertising the hot object (the
//        flood spreads off it), and the committed 2PC flip re-homes the
//        segments so the tail of the stream follows the object — via the
//        NameServer forwarding entry — to its adopted server's disk.
//
// Timing matters more than bandwidth here: every protocol round trip costs
// CPU on the source, so a migration attempted after the herd has already
// collapsed the node crawls (its frames queue behind the backlog). The
// arrival pattern ramps before it floods precisely to measure the daemon
// acting at the moment of first pressure — the regime it is designed for
// (see docs/MIGRATION.md, "Known limitations").
//
// Figures of merit: p50/p95 task completion latency (simulated ms) and the
// DSM remote-fetch count (pages that crossed the wire), off vs on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "clouds/cluster.hpp"

namespace {

using namespace clouds;

obj::ClassDef workClass() {
  obj::ClassDef def;
  def.name = "hotwork";
  // A counter needs one page of state; keeping the segments minimal also
  // keeps the migration transfer window short (every extra page is two
  // more round trips through a CPU the herd is saturating).
  def.pheap_size = ra::kPageSize;
  def.vheap_size = ra::kPageSize;
  def.constructor = [](obj::ObjectContext& ctx, const obj::ValueList&) -> Result<obj::Value> {
    ctx.put<std::int64_t>(0, 0);
    return obj::Value{};
  };
  // A real object operation: touch persistent state, then burn CPU. The
  // burn is sliced into 1 ms quanta (timeslicing): each slice is a block
  // point, so a loaded server still services pages, locks, and gossip
  // between slices instead of livelocking its peers.
  def.entry("work", [](obj::ObjectContext& ctx, const obj::ValueList&) -> Result<obj::Value> {
    const std::int64_t v = ctx.get<std::int64_t>(0);
    for (int i = 0; i < 5; ++i) ctx.compute(sim::msec(1));
    ctx.put<std::int64_t>(0, v + 1);
    return obj::Value{v + 1};
  });
  return def;
}

struct Outcome {
  double p50 = 0, p95 = 0;
  int completed = 0;
  std::uint64_t remote_fetches = 0;
  std::uint64_t migrations = 0;
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * (v.size() - 1))];
}

Outcome runScenario(bool migration_on) {
  ClusterConfig cfg;
  cfg.compute_servers = 0;
  // Dedicated data servers so the name service (data0) and the objects'
  // initial home (data1) sit OFF the hot compute node — and off each
  // other: lookups, gossip, and page service on one CPU make that server
  // the bottleneck for everything, including the migration itself.
  cfg.data_servers = 2;
  cfg.combined_servers = 4;
  cfg.workstations = 1;  // the chooser placing the stream off gossip
  cfg.sched.policy = sched::PolicyKind::locality;
  cfg.sched.gossip_interval = sim::msec(10);
  // Trigger early: the whole point is to offload while the hot server is
  // merely queueing, not after it has collapsed into receive livelock (a
  // starved CPU also starves the migration daemon itself).
  cfg.migrate.enabled = migration_on;
  cfg.migrate.interval = sim::msec(10);
  cfg.migrate.cooldown = sim::msec(20);
  cfg.migrate.high_watermark = 2;
  cfg.migrate.low_watermark = 0;  // adopters must be idle — spread, don't dogpile
  cfg.migrate.min_heat = 2;
  Cluster cluster(cfg);
  cluster.classes().registerClass(workClass());

  // The skew: every object homed on (and cached by) server 0.
  for (int i = 0; i < 4; ++i) {
    if (!cluster.create("hotwork", "H" + std::to_string(i), /*data_idx=*/1).ok()) return {};
  }

  struct Task {
    std::shared_ptr<obj::Runtime::ThreadHandle> handle;
    sim::TimePoint started{};
  };
  std::vector<Task> tasks;
  for (int i = 0; i < 128; ++i) {
    Task t;
    t.started = cluster.sim().now();
    t.handle = cluster.startBalanced("H" + std::to_string(i % 4), "work", {});
    tasks.push_back(std::move(t));
    // Ramp, flood, then a paced tail. The slow ramp trips the watermark
    // while the hot server's run queue is still shallow — which is when the
    // daemon can actually execute the protocol quickly (a collapsed server
    // starves its own migrator along with everything else). The flood lands
    // on whatever topology migration produced, and the tail keeps the
    // stream alive past the ownership flip so late placements follow the
    // object to its adopted home.
    cluster.sim().runFor(i < 24 ? sim::msec(8) : i < 96 ? sim::msec(4) : sim::msec(20));
  }
  cluster.run();

  Outcome out;
  std::vector<double> latencies;
  for (const auto& t : tasks) {
    if (t.handle->done && t.handle->result.ok()) {
      ++out.completed;
      latencies.push_back(bench::ms(t.handle->completed_at - t.started));
    }
  }
  out.p50 = percentile(latencies, 0.50);
  out.p95 = percentile(latencies, 0.95);
  out.remote_fetches = cluster.sim().metrics().counterSum("dsm/remote_fetches");
  out.migrations = cluster.stats().migrations_committed;
  static bool emitted_metrics = false;
  if (!emitted_metrics && migration_on) {
    emitted_metrics = true;
    bench::emitMetrics("migration", cluster.sim());
  }
  return out;
}

void BM_Migration(benchmark::State& state, bool migration_on) {
  for (auto _ : state) {
    const Outcome out = runScenario(migration_on);
    bench::report(state, out.p95, /*paper_ms=*/0);
    state.counters["p50_ms"] = out.p50;
    state.counters["p95_ms"] = out.p95;
    state.counters["completed"] = out.completed;
    state.counters["remote_fetches"] = static_cast<double>(out.remote_fetches);
    state.counters["migrations"] = static_cast<double>(out.migrations);
  }
}

BENCHMARK_CAPTURE(BM_Migration, skewed_off, false)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK_CAPTURE(BM_Migration, skewed_on, true)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();

// E4 — "Distributed Programming" over DSM (paper §5.1).
//
//   "Sorting algorithms can use multiple threads to perform a sort, with
//    each thread being executed at a different compute server, even though
//    the data itself is contained in one object. ... We have shown that
//    even though the data resides in a single object, the computation can
//    be run in a distributed fashion without incurring a high overhead."
//
// The series: sort time of an N-key object with 1..8 compute servers. The
// paper reports no absolute numbers — the reproduced *shape* is a speedup
// that grows with servers and tapers as communication (page migration +
// merge) starts to dominate.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "clouds/cluster.hpp"
#include "clouds/standard_classes.hpp"

namespace {

using namespace clouds;

double runSort(int n_workers, std::int64_t keys, std::uint64_t seed,
               const char* emit_metrics_label = nullptr) {
  ClusterConfig cfg;
  cfg.compute_servers = 8;
  cfg.data_servers = 1;
  cfg.workstations = 0;
  cfg.seed = seed;
  Cluster cluster(cfg);
  cluster.classes().registerClass(obj::samples::sorterClass());
  if (!cluster.create("sorter", "S").ok()) return -1;
  if (!cluster.call("S", "fill", {keys, 9999}).ok()) return -1;
  const auto checksum = cluster.call("S", "checksum", {0, keys});
  if (!checksum.ok()) return -1;

  const auto start = cluster.sim().now();
  const std::int64_t slice = keys / n_workers;
  std::vector<std::shared_ptr<obj::Runtime::ThreadHandle>> workers;
  for (int w = 0; w < n_workers; ++w) {
    const std::int64_t lo = w * slice;
    const std::int64_t hi = w == n_workers - 1 ? keys : lo + slice;
    workers.push_back(cluster.start("S", "sort_range", {lo, hi}, w));
  }
  cluster.run();
  for (auto& h : workers) {
    if (!h->done || !h->result.ok()) return -1;
  }
  for (std::int64_t width = slice; width < keys; width *= 2) {
    for (std::int64_t lo = 0; lo + width < keys; lo += 2 * width) {
      const std::int64_t hi = std::min(lo + 2 * width, keys);
      if (!cluster.call("S", "merge", {lo, lo + width, hi}).ok()) return -1;
    }
  }
  const double elapsed = bench::ms(cluster.sim().now() - start);
  if (emit_metrics_label != nullptr) bench::emitMetrics(emit_metrics_label, cluster.sim());
  // A sort must be an ordered permutation of its input: a run that lost
  // keys reports failure, not a timing.
  if (cluster.call("S", "is_sorted", {0, keys}).value() != obj::Value{true}) return -1;
  if (cluster.call("S", "checksum", {0, keys}).value() != checksum.value()) return -1;
  return elapsed;
}

void BM_DsmSort(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const std::int64_t keys = state.range(1);
  int iter = 0;
  for (auto _ : state) {
    const double ms = runSort(workers, keys, 42, iter++ == 0 ? "BM_DsmSort" : nullptr);
    if (ms < 0) {
      state.SkipWithError("sort failed");
      return;
    }
    bench::report(state, ms, 0);
    state.counters["workers"] = workers;
    state.counters["keys"] = static_cast<double>(keys);
  }
}
BENCHMARK(BM_DsmSort)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->Args({1, 32768})
    ->Args({2, 32768})
    ->Args({4, 32768})
    ->Args({8, 32768})
    ->Args({1, 8192})
    ->Args({4, 8192});

}  // namespace

BENCHMARK_MAIN();

// Simulation-wide metrics.
//
// A MetricsRegistry holds named counters, gauges and fixed-bucket latency
// histograms, scoped by convention as "<node>/<subsystem>/<metric>" (e.g.
// "cs0/ratp/retransmits", "ds1/dsm/read_faults") — see docs/OBSERVABILITY.md.
// Like the TraceSink, the registry is part of the simulated universe: every
// value is a pure function of the seed, and toJson() emits a sorted,
// integer-only snapshot with no wall-clock times or pointers, so two runs
// with the same seed produce byte-identical snapshots (the determinism test
// asserts exactly that).
//
// Hot subsystems resolve their metrics once at construction and keep the
// returned references: map nodes are stable, so a cached &counter(...) stays
// valid for the registry's lifetime.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace clouds::sim {

// Fixed-bucket histogram. Values are recorded as plain integers; latency
// histograms record microseconds (observe(Duration) converts). counts() has
// one slot per bound (value <= bound, first match) plus a final overflow
// slot, so the bucket counts always sum to count().
class Histogram {
 public:
  // Exponential microsecond grid covering the paper's latencies (0.1 ms
  // context switches up to multi-second retry horizons).
  static const std::vector<std::int64_t>& defaultLatencyBoundsUsec();

  explicit Histogram(std::vector<std::int64_t> bounds);

  void observe(std::int64_t value);
  void observe(Duration d) { observe(d.count() / 1000); }  // as microseconds

  std::uint64_t count() const noexcept { return count_; }
  std::int64_t sum() const noexcept { return sum_; }
  const std::vector<std::int64_t>& bounds() const noexcept { return bounds_; }
  const std::vector<std::uint64_t>& bucketCounts() const noexcept { return counts_; }

  // Estimate the q-quantile (q in [0,1]) from the bucket counts: find the
  // bucket holding the rank-ceil(q*count) observation and interpolate
  // linearly inside it, in pure integer arithmetic so the result is part of
  // the deterministic universe. Observations in the overflow slot clamp to
  // the last bound (the grid is the resolution limit — pick bounds that
  // cover the tail you care about). Returns 0 on an empty histogram.
  std::int64_t quantile(double q) const;

  // Fold another histogram in. Both must share bounds (same metric from
  // same-config universes); mismatched shapes are a programming error.
  void merge(const Histogram& other);
  void clear();

 private:
  std::vector<std::int64_t> bounds_;   // ascending inclusive upper bounds
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1, last = overflow
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
};

class MetricsRegistry {
 public:
  // Find-or-create. The returned reference is stable for the registry's
  // lifetime; subsystems cache it and bump it directly on hot paths.
  std::uint64_t& counter(const std::string& name);
  std::int64_t& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);  // default latency buckets
  Histogram& histogram(const std::string& name, std::vector<std::int64_t> bounds);

  // Read-only lookups (0 / nullptr when the metric was never registered).
  std::uint64_t counterValue(const std::string& name) const;
  std::int64_t gaugeValue(const std::string& name) const;
  const Histogram* findHistogram(const std::string& name) const;
  // One metric summed over every scope: the counters named
  // "<scope>/<suffix>", e.g. "ratp/retransmits" over all nodes.
  std::uint64_t counterSum(const std::string& suffix) const;

  // Fold another registry in: counters and gauges add, histograms merge.
  // Commutative — merging A into B equals merging B into A.
  void merge(const MetricsRegistry& other);
  void clear();

  // Deterministic snapshot: keys sorted (std::map order), integers only,
  // no whitespace. Same seed => byte-identical output.
  std::string toJson() const;

  // Deterministic p50/p95/p99 digest of every histogram, same ordering and
  // formatting rules as toJson(). One code path for every consumer: the
  // benches (bench::emitMetrics), the load generator, and any test that
  // wants percentiles reads this instead of re-deriving from raw buckets.
  std::string percentilesJson() const;

  std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::int64_t> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace clouds::sim

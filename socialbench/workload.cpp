#include "workload.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>

#include "app/social.hpp"
#include "clouds/cluster.hpp"
#include "load/generator.hpp"

namespace socialbench {

using namespace clouds;

namespace {

// Ops per universe: enough that every universe has well over ten reads past
// its p99 and ten writes past its median. run.py batches universes to fill
// the measuring window.
const std::vector<WorkloadSpec> kWorkloads = {
    // The E12 headline mix: gcp fan-out writes drive the wire, the lock
    // manager and the WAL. Base 20 ops/s, not the headline's 30: at 30 a
    // universe times out a few RaTP transactions, and a timeout that races
    // a reply's reassembly reads freed memory in RatpEndpoint::onReplyFrag
    // (see README.md), which aborts about one universe in 500.
    {"social_mix", 4, 1 << 20, 0.99, {0.80, 0.12, 0.06, 0.02}, 20.0, 3000},
    // Same cluster and universe, read-heavy: s-label reads through
    // placement, invocation and DSM read faults on a quiet wire.
    {"social_read", 4, 1 << 20, 0.99, {0.96, 0.02, 0.015, 0.005}, 60.0, 6000},
    // BM_E12_ClusterSize/8: eight servers saturate the one shared wire.
    {"wire_8node", 8, 1 << 17, 0.99, {0.80, 0.12, 0.06, 0.02}, 100.0, 1500},
};

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t nanosSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
}

ClusterConfig clusterConfig(const WorkloadSpec& spec, std::uint64_t seed) {
  // The E12 harness settings (bench/bench_social.cpp): combined servers, one
  // workstation so placement flows through the gossip chooser, relaxed
  // gossip cadence, wal engine, migration off.
  ClusterConfig cfg;
  cfg.compute_servers = 0;
  cfg.data_servers = 0;
  cfg.combined_servers = spec.nodes;
  cfg.workstations = 1;
  cfg.seed = seed;
  cfg.store_engine = store::StoreEngine::wal;
  cfg.sched.gossip_interval = sim::msec(250);
  cfg.sched.stale_after = sim::msec(1000);
  cfg.sched.evict_after = sim::msec(4000);
  return cfg;
}

app::SocialApp::Options appOptions(const WorkloadSpec& spec) {
  app::SocialApp::Options opts;
  opts.shards = 16;
  opts.user_capacity = 2 * spec.users;
  opts.post_ring_slots = 1 << 12;
  opts.seed_users = spec.users;
  return opts;
}

load::GeneratorOptions generatorOptions(const WorkloadSpec& spec, std::uint64_t seed) {
  load::GeneratorOptions g;
  g.ops = spec.ops;
  g.seed = seed ^ 0x10adf00d;
  g.theta = spec.theta;
  g.base_rate = spec.base_rate;
  g.diurnal_amplitude = 0.6;
  g.diurnal_period = sim::sec(40);
  g.mix = load::Mix{spec.mix[0], spec.mix[1], spec.mix[2], spec.mix[3]};
  return g;
}

// "<idx> t=<usec> <kind> u=<key> cs=<node> <ok|fail> lat=<usec>"
std::vector<Op> parseTranscript(const std::string& transcript, std::vector<std::string>& errors) {
  std::vector<Op> ops;
  std::istringstream in(transcript);
  std::string line;
  while (std::getline(in, line)) {
    Op op;
    char kind[16] = {0};
    char outcome[8] = {0};
    unsigned long long idx = 0, key = 0;
    long long t = 0, lat = 0;
    int node = 0;
    if (std::sscanf(line.c_str(), "%llu t=%lld %15s u=%llu cs=%d %7s lat=%lld", &idx, &t, kind,
                    &key, &node, outcome, &lat) != 7) {
      errors.push_back("unparsable transcript line: " + line);
      continue;
    }
    op.index = idx;
    op.issued_usec = t;
    op.node = node;
    op.ok = std::string(outcome) == "ok";
    op.latency_usec = lat;
    op.kind = -1;
    for (int k = 0; k < 4; ++k) {
      if (std::string(kind) == load::opKindName(static_cast<load::OpKind>(k))) op.kind = k;
    }
    if (op.kind < 0) errors.push_back("unknown op kind in transcript: " + line);
    if (op.ok != (lat >= 0)) errors.push_back("outcome and latency disagree: " + line);
    ops.push_back(op);
  }
  return ops;
}

// Every counter and histogram count/sum of a registry snapshot, summed by
// metric suffix ("<scope>/dsm/hits" -> "dsm/hits") over all nodes.
std::map<std::string, double> layerCounters(const std::string& json) {
  // toJson() is {"counters":{"a/b":1,...},"gauges":{...},"histograms":
  // {"a/b":{"count":N,"sum":S,"bounds":[...],"counts":[...]},...}}: flat,
  // sorted, integers only, so a scanner is enough.
  std::map<std::string, double> out;
  auto suffix = [](const std::string& name) {
    const auto slash = name.find('/');
    return slash == std::string::npos ? name : name.substr(slash + 1);
  };
  auto section = [&](const char* key) -> std::pair<std::size_t, std::size_t> {
    const std::string tag = std::string("\"") + key + "\":{";
    const std::size_t begin = json.find(tag);
    if (begin == std::string::npos) return {0, 0};
    std::size_t i = begin + tag.size();
    int depth = 1;
    std::size_t j = i;
    for (; j < json.size() && depth > 0; ++j) {
      if (json[j] == '{') ++depth;
      if (json[j] == '}') --depth;
    }
    return {i, j - 1};
  };
  auto [cb, ce] = section("counters");
  for (std::size_t i = cb; i < ce;) {
    const std::size_t q1 = json.find('"', i);
    if (q1 == std::string::npos || q1 >= ce) break;
    const std::size_t q2 = json.find('"', q1 + 1);
    const std::string name = json.substr(q1 + 1, q2 - q1 - 1);
    const double v = std::strtod(json.c_str() + q2 + 2, nullptr);
    out[suffix(name)] += v;
    i = json.find_first_of(",}", q2 + 2) + 1;
  }
  auto [hb, he] = section("histograms");
  for (std::size_t i = hb; i < he;) {
    const std::size_t q1 = json.find('"', i);
    if (q1 == std::string::npos || q1 >= he) break;
    const std::size_t q2 = json.find('"', q1 + 1);
    const std::string name = suffix(json.substr(q1 + 1, q2 - q1 - 1));
    const std::size_t c = json.find("\"count\":", q2);
    const std::size_t s = json.find("\"sum\":", q2);
    out[name + ".count"] += std::strtod(json.c_str() + c + 8, nullptr);
    out[name + ".sum"] += std::strtod(json.c_str() + s + 6, nullptr);
    i = json.find('}', q2) + 1;
  }
  return out;
}

// Nearest-rank q-quantile (rank ceil(q * n), as sim::Histogram::quantile
// ranks) of the completed ops of one kind, in microseconds; -1 when none.
std::int64_t completedQuantileUsec(const std::vector<Op>& ops, int kind, double q) {
  std::vector<std::int64_t> done;
  for (const Op& op : ops) {
    if (op.kind == kind && op.ok) done.push_back(op.latency_usec);
  }
  if (done.empty()) return -1;
  const double n = static_cast<double>(done.size());
  std::size_t rank = static_cast<std::size_t>(q * n);
  if (static_cast<double>(rank) < q * n) ++rank;
  if (rank == 0) rank = 1;
  std::nth_element(done.begin(), done.begin() + static_cast<std::ptrdiff_t>(rank - 1), done.end());
  return done[rank - 1];
}

void checkAccounting(const WorkloadSpec& spec, const load::Generator& gen,
                     const sim::MetricsRegistry& metrics, RunResult& r) {
  auto fail = [&](const std::string& what) { r.errors.push_back(what); };
  const auto& s = gen.summary();
  if (s.issued != spec.ops) fail("issued != requested ops");
  if (s.issued != s.ok + s.failed) fail("issued != ok + failed");
  if (r.ops.size() != s.issued) fail("transcript lines != issued");
  std::uint64_t kinds_sum = 0;
  for (int k = 0; k < 4; ++k) {
    kinds_sum += s.per_kind[k];
    const std::string kind = load::opKindName(static_cast<load::OpKind>(k));
    std::uint64_t issued = 0, ok = 0;
    for (const Op& op : r.ops) {
      if (op.kind != k) continue;
      ++issued;
      ok += op.ok ? 1 : 0;
    }
    if (issued != s.per_kind[k]) fail(kind + ": transcript count != summary per_kind");
    if (metrics.counterValue("load/" + kind + "/issued") != issued) fail(kind + ": issued counter");
    if (metrics.counterValue("load/" + kind + "/ok") != ok) fail(kind + ": ok counter");
    if (metrics.counterValue("load/" + kind + "/failed") != issued - ok) {
      fail(kind + ": failed counter");
    }
    const sim::Histogram* h = metrics.findHistogram("load/" + kind + "/latency_usec");
    if ((h == nullptr ? 0 : h->count()) != ok) fail(kind + ": latency histogram count != ok");
    if (h == nullptr) continue;
    // Below the grid's last bound the histogram's interpolated quantile must
    // fall inside the bucket that holds the exact transcript value.
    for (double q : {0.50, 0.99}) {
      const std::int64_t exact = completedQuantileUsec(r.ops, k, q);
      const auto& bounds = h->bounds();
      if (exact < 0 || exact > bounds.back()) continue;
      std::size_t b = 0;
      while (exact > bounds[b]) ++b;
      const std::int64_t lo = b == 0 ? 0 : bounds[b - 1];
      const std::int64_t est = h->quantile(q);
      if (est < lo || est > bounds[b]) {
        fail(kind + ": histogram quantile " + std::to_string(est) + " outside the bucket of exact " +
             std::to_string(exact));
      }
    }
  }
  if (kinds_sum != s.issued) fail("per-kind issued does not sum to issued");
}

// Every registry counter summed by suffix, plus the runtime counters the
// registry does not carry.
std::map<std::string, double> layerSnapshot(Cluster& cluster) {
  std::map<std::string, double> layers = layerCounters(cluster.sim().metrics().toJson());
  const Cluster::Stats st = cluster.stats();
  layers["obj/invocations"] = static_cast<double>(st.invocations);
  layers["obj/remote_invocations"] = static_cast<double>(st.remote_invocations);
  layers["obj/activations"] = static_cast<double>(st.activations);
  layers["obj/tx_retries"] = static_cast<double>(st.tx_retries);
  return layers;
}

}  // namespace

const WorkloadSpec* findWorkload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

RunResult runWorkload(const WorkloadSpec& spec, std::uint64_t seed, bool traced) {
  RunResult r;
  const auto t0 = Clock::now();
  auto span = [&](const char* name, auto&& fn) {
    const std::int64_t start = nanosSince(t0);
    const auto c0 = Clock::now();
    fn();
    const double s = secondsSince(c0);
    if (traced) r.host_spans.push_back({name, start, nanosSince(t0)});
    return s;
  };

  std::unique_ptr<Cluster> cluster;
  r.cluster_ctor_s =
      span("Cluster::Cluster", [&] { cluster = std::make_unique<Cluster>(clusterConfig(spec, seed)); });
  std::optional<app::SocialApp> social;
  r.app_build_s = span("SocialApp::build", [&] {
    auto built = app::SocialApp::build(*cluster, appOptions(spec));
    if (!built.ok()) {
      r.errors.push_back("SocialApp::build failed: " + built.error().toString());
      return;
    }
    social.emplace(std::move(built).value());
  });
  if (!social) return r;

  load::Generator gen(*cluster, *social, generatorOptions(spec, seed));
  sim::Simulation& sim = cluster->sim();
  const sim::TimePoint sim_start = sim.now();
  const std::map<std::string, double> before = layerSnapshot(*cluster);

  // The sampler: a self-re-arming daemon event once per simulated second.
  // Daemon events never keep run() alive, so the universe drains as usual.
  std::function<void()> tick = [&] {
    Sample s;
    s.sim_usec = (sim.now() - sim_start).count() / 1000;
    s.host_ns = nanosSince(t0);
    s.layers = layerCounters(sim.metrics().toJson());
    r.samples.push_back(std::move(s));
    sim.scheduleDaemon(sim::sec(1), tick);
  };
  if (traced) sim.scheduleDaemon(sim::sec(1), tick);

  r.generator_run_s = span("Generator::run", [&] { gen.run(); });
  r.sim_usec = (sim.now() - sim_start).count() / 1000;
  r.snapshot_s = span("MetricsRegistry::toJson", [&] { r.metrics_json = sim.metrics().toJson(); });

  r.transcript = gen.transcript();
  r.ops = parseTranscript(r.transcript, r.errors);
  r.trace_entries = sim.tracer().count();
  checkAccounting(spec, gen, sim.metrics(), r);

  // Layer counters over the Generator::run window only (SocialApp::build
  // also drives the universe).
  r.layers = layerSnapshot(*cluster);
  for (const auto& [name, value] : before) r.layers[name] -= value;
  r.layers["sim/window_usec"] = static_cast<double>(r.sim_usec);
  double cpus = 0;
  for (std::size_t at = 0; (at = r.metrics_json.find("/cpu/busy_usec\"", at)) != std::string::npos;
       ++at) {
    ++cpus;
  }
  r.layers["sim/cpus"] = cpus;
  return r;
}

}  // namespace socialbench

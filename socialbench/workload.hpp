// The social-tier benchmark's workloads, one run of each, and the numbers
// read back from a finished run. Everything here drives the library through
// its public surface: Cluster, SocialApp, Generator, the metrics registry.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace socialbench {

struct WorkloadSpec {
  std::string name;
  int nodes = 4;                      // combined compute+data servers
  std::uint64_t users = 1 << 20;      // seeded user universe
  double theta = 0.99;                // Zipf skew
  double mix[4] = {0.80, 0.12, 0.06, 0.02};  // read / post / follow / register
  double base_rate = 30.0;            // mean arrivals per simulated second
  std::uint64_t ops = 0;              // ops per universe
};

// nullptr for an unknown name.
const WorkloadSpec* findWorkload(const std::string& name);

// One op as the generator's transcript records it.
struct Op {
  std::uint64_t index = 0;
  std::int64_t issued_usec = 0;  // simulated issue time
  int kind = 0;                  // load::OpKind
  int node = 0;                  // compute index it was placed on
  bool ok = false;
  std::int64_t latency_usec = -1;  // completion - issue; -1 when failed
};

// Host-clock span around one public call, in nanoseconds since run start.
struct HostSpan {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// One per-second sample of the layer counters taken by the traced run's
// daemon sampler.
struct Sample {
  std::int64_t sim_usec = 0;
  std::int64_t host_ns = 0;
  std::map<std::string, double> layers;
};

struct RunResult {
  // Host phases, seconds.
  double cluster_ctor_s = 0;
  double app_build_s = 0;
  double generator_run_s = 0;
  double snapshot_s = 0;
  double setup_s() const { return cluster_ctor_s + app_build_s; }

  std::int64_t sim_usec = 0;  // simulated duration of Generator::run
  std::string transcript;
  std::string metrics_json;
  std::vector<Op> ops;
  std::uint64_t trace_entries = 0;
  std::map<std::string, double> layers;  // end-of-run layer counters
  std::vector<std::string> errors;       // accounting violations

  // Traced runs only.
  std::vector<HostSpan> host_spans;
  std::vector<Sample> samples;
};

// Build the cluster and app, run the generator, snapshot the registry, and
// check the accounting identities and the latency histograms against the
// transcript (violations land in `errors`). A traced run also records host
// spans and arms a once-per-simulated-second daemon sampler; an untraced run
// leaves every library default untouched.
RunResult runWorkload(const WorkloadSpec& spec, std::uint64_t seed, bool traced);

std::uint64_t fnv1a(const std::string& s);

}  // namespace socialbench

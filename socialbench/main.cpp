// socialbench — drives the social application tier on a Cluster and prints
// what it measured as JSON lines on stdout. run.py builds this program,
// calls it per universe (one workload run at one seed), applies the
// correctness gates and prints the benchmark's result. Modes:
//
//   socialbench pins
//       the paper-calibration pins (E1-E3), one line.
//   socialbench timed --workload W --seed N [--reps R] [--ops K]
//       R runs of one universe with every library default untouched, one
//       line each, then one line with this process's peak RSS.
//   socialbench traced --workload W --seeds N1,N2,... [--spans FILE] [--ops K]
//       per seed, an untraced and a traced run of the universe and one line
//       comparing them; the first seed's spans are written to FILE. A
//       warm-up run of the first seed goes first, so that no measured run
//       pays the cold process's page faults.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "calibration.hpp"
#include "workload.hpp"

namespace {

using namespace socialbench;

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%016llx\"", static_cast<unsigned long long>(v));
  return buf;
}

// Builds one flat JSON object.
class Json {
 public:
  Json& add(const std::string& key, const std::string& raw) {
    out_ += (out_.size() == 1 ? "" : ",") + quote(key) + ":" + raw;
    return *this;
  }
  Json& num(const std::string& key, double v) { return add(key, ::num(v)); }
  std::string str() const { return out_ + "}"; }

 private:
  std::string out_ = "{";
};

std::string numberMap(const std::map<std::string, double>& m) {
  Json j;
  for (const auto& [k, v] : m) j.num(k, v);
  return j.str();
}

std::string stringList(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + quote(v[i]);
  return out + "]";
}

const char* const kKindNames[4] = {"read", "post", "follow", "register"};

// Every op's simulated latency in microseconds by kind, issue order, -1 for
// an op that failed: run.py pools these across a batch of runs.
std::string latencies(const RunResult& r) {
  Json j;
  for (int k = 0; k < 4; ++k) {
    std::string list = "[";
    for (const Op& op : r.ops) {
      if (op.kind != k) continue;
      list += (list.size() > 1 ? "," : "") + std::to_string(op.latency_usec);
    }
    j.add(kKindNames[k], list + "]");
  }
  return j.str();
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Args {
  std::string mode, workload, spans;
  std::vector<std::uint64_t> seeds;
  int reps = 1;
  std::uint64_t ops = 0;
};

bool parseArgs(int argc, char** argv, Args& a) {
  if (argc < 2 || argc % 2 != 0) return false;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed" || k == "--seeds") {
      for (std::size_t at = 0; at <= v.size();) {
        const std::size_t comma = std::min(v.find(',', at), v.size());
        a.seeds.push_back(std::strtoull(v.substr(at, comma - at).c_str(), nullptr, 10));
        at = comma + 1;
      }
    } else if (k == "--reps") {
      a.reps = std::atoi(v.c_str());
    } else if (k == "--ops") {
      a.ops = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      return false;
    }
  }
  return true;
}

std::string runLine(const RunResult& r) {
  Json j;
  j.num("setup_s", r.setup_s())
      .num("wall_s", r.generator_run_s)
      .num("events", r.layers.at("events_executed"))
      .add("transcript_hash", hex(fnv1a(r.transcript)))
      .add("metrics_hash", hex(fnv1a(r.metrics_json)))
      .add("latency_usec", latencies(r))
      .add("errors", stringList(r.errors));
  return j.str();
}

int timed(const Args& a, const WorkloadSpec& spec) {
  for (int rep = 0; rep < a.reps; ++rep) {
    std::printf("%s\n", runLine(runWorkload(spec, a.seeds.at(0), false)).c_str());
    std::fflush(stdout);
  }
  std::printf("%s\n", Json().num("peak_rss_mb", peakRssMb()).str().c_str());
  return 0;
}

// The metrics snapshot with one counter's entry removed.
std::string without(const std::string& json, const std::string& counter) {
  const std::string key = quote(counter) + ":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return json;
  std::size_t end = json.find_first_of(",}", at + key.size());
  if (json[end] == ',') ++end;
  return json.substr(0, at) + json.substr(end);
}

bool writeSpans(const std::string& path, const RunResult& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"host_spans\":[");
  for (std::size_t i = 0; i < r.host_spans.size(); ++i) {
    const HostSpan& s = r.host_spans[i];
    std::fprintf(f, "%s{\"name\":%s,\"clock\":\"host\",\"start_ns\":%lld,\"end_ns\":%lld}",
                 i ? "," : "", quote(s.name).c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fprintf(f, "],\n\"op_spans\":[");
  for (std::size_t i = 0; i < r.ops.size(); ++i) {
    const Op& op = r.ops[i];
    std::fprintf(f,
                 "%s\n{\"op\":%llu,\"kind\":\"%s\",\"node\":%d,\"clock\":\"sim\","
                 "\"start_usec\":%lld,\"end_usec\":%lld,\"ok\":%s}",
                 i ? "," : "", static_cast<unsigned long long>(op.index), kKindNames[op.kind],
                 op.node, static_cast<long long>(op.issued_usec),
                 static_cast<long long>(op.ok ? op.issued_usec + op.latency_usec : -1),
                 op.ok ? "true" : "false");
  }
  std::fprintf(f, "],\n\"samples\":[");
  for (std::size_t i = 0; i < r.samples.size(); ++i) {
    const Sample& s = r.samples[i];
    std::fprintf(f, "%s\n{\"sim_usec\":%lld,\"host_ns\":%lld,\"layers\":%s}", i ? "," : "",
                 static_cast<long long>(s.sim_usec), static_cast<long long>(s.host_ns),
                 numberMap(s.layers).c_str());
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// One universe's traced run checked against its untraced twin.
std::string tracedLine(const RunResult& plain, const RunResult& tr) {
  std::vector<std::string> errors = plain.errors;
  errors.insert(errors.end(), tr.errors.begin(), tr.errors.end());
  if (plain.transcript != tr.transcript) errors.push_back("traced run changed the transcript");
  if (without(plain.metrics_json, "sim/events_executed") !=
      without(tr.metrics_json, "sim/events_executed")) {
    errors.push_back("traced run changed a metric other than sim/events_executed");
  }
  const double extra_events =
      tr.layers.at("events_executed") - plain.layers.at("events_executed");
  if (extra_events != static_cast<double>(tr.samples.size())) {
    errors.push_back("sampler added " + num(extra_events) + " events for " +
                     std::to_string(tr.samples.size()) + " ticks");
  }
  // Busiest one-second window of the shared wire.
  double busy_peak = 0;
  for (std::size_t i = 1; i < tr.samples.size(); ++i) {
    const auto& prev = tr.samples[i - 1];
    const auto& cur = tr.samples[i];
    const double d_busy = cur.layers.at("eth/busy_usec") - prev.layers.at("eth/busy_usec");
    busy_peak = std::max(busy_peak, d_busy / static_cast<double>(cur.sim_usec - prev.sim_usec));
  }
  const std::map<std::string, double> host = {
      {"cluster_ctor_s", tr.cluster_ctor_s},
      {"app_build_s", tr.app_build_s},
      {"generator_run_s", tr.generator_run_s},
      {"snapshot_s", tr.snapshot_s},
      {"untraced_generator_run_s", plain.generator_run_s},
      {"busy_ratio_peak", busy_peak},
      {"trace_entries", static_cast<double>(plain.trace_entries)},
  };
  Json j;
  j.add("layers", numberMap(plain.layers))
      .add("host", numberMap(host))
      .add("latency_usec", latencies(plain))
      .add("errors", stringList(errors));
  return j.str();
}

int traced(const Args& a, const WorkloadSpec& spec) {
  const RunResult warmup = runWorkload(spec, a.seeds.at(0), false);
  for (std::size_t i = 0; i < a.seeds.size(); ++i) {
    RunResult plain = runWorkload(spec, a.seeds[i], false);
    const RunResult tr = runWorkload(spec, a.seeds[i], true);
    if (i == 0 && (warmup.transcript != plain.transcript ||
                   warmup.metrics_json != plain.metrics_json)) {
      plain.errors.push_back("two untraced runs of one seed diverged");
    }
    if (i == 0 && !a.spans.empty() && !writeSpans(a.spans, tr)) {
      plain.errors.push_back("cannot write " + a.spans);
    }
    std::printf("%s\n", tracedLine(plain, tr).c_str());
    std::fflush(stdout);
  }
  return 0;
}

int pins() {
  std::string list = "[";
  for (const Pin& p : measurePins()) {
    Json j;
    j.add("name", quote(p.name))
        .num("expected_ms", p.expected_ms)
        .num("measured_ms", p.measured_ms)
        .add("ok", p.ok ? "true" : "false");
    list += (list.size() > 1 ? "," : "") + j.str();
  }
  std::printf("%s\n", Json().add("pins", list + "]").str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parseArgs(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: socialbench pins\n"
                 "       socialbench timed --workload W --seed N [--reps R] [--ops K]\n"
                 "       socialbench traced --workload W --seeds N1,N2,... [--spans FILE] "
                 "[--ops K]\n");
    return 2;
  }
  if (a.mode == "pins") return pins();
  const WorkloadSpec* found = findWorkload(a.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "socialbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  if (a.seeds.empty()) {
    std::fprintf(stderr, "socialbench: --seed is required\n");
    return 2;
  }
  WorkloadSpec spec = *found;
  if (a.ops != 0) spec.ops = a.ops;
  if (a.mode == "timed") return timed(a, spec);
  if (a.mode == "traced") return traced(a, spec);
  std::fprintf(stderr, "socialbench: unknown mode '%s'\n", a.mode.c_str());
  return 2;
}

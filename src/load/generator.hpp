// Open-loop, heavy-tailed load generator for the social application tier
// (docs/APP.md §generator).
//
// Open loop: arrivals follow a (time-varying) Poisson process and are issued
// whether or not earlier operations have completed, so the generator exposes
// queueing delay instead of hiding it behind closed-loop self-throttling —
// the shape production load actually has. The arrival rate follows a
// diurnal sine curve; keys are drawn Zipf(θ); the op mix (read timeline /
// post / follow / register) is configurable.
//
// Everything is deterministic: the generator owns its mt19937_64 (the sim's
// rng is untouched), per-op placements go through the gossip scheduler, and
// after run() a transcript string records every operation in issue order —
// kind, key, placement, outcome, latency. Two same-seed runs produce
// byte-identical transcripts and metrics snapshots; the determinism test
// asserts exactly that.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "app/social.hpp"
#include "load/zipf.hpp"

namespace clouds::load {

enum class OpKind : std::uint8_t { read = 0, post = 1, follow = 2, register_user = 3 };
const char* opKindName(OpKind k) noexcept;

struct Mix {
  double read = 0.80;
  double post = 0.12;
  double follow = 0.06;
  double register_user = 0.02;
};

struct GeneratorOptions {
  std::uint64_t ops = 1000;
  std::uint64_t seed = 1;         // generator-private rng stream
  double theta = 0.99;            // Zipf skew over the seeded user universe
  double base_rate = 500.0;       // mean arrivals per simulated second
  // rate(t) = base_rate * (1 + amplitude * sin(2π t / period)); amplitude 0
  // flattens the curve.
  double diurnal_amplitude = 0.6;
  sim::Duration diurnal_period = sim::sec(40);
  Mix mix;
};

class Generator {
 public:
  Generator(Cluster& cluster, app::SocialApp& app, GeneratorOptions options);

  // Issue options.ops operations open-loop and drain the cluster. Metrics
  // land in cluster.sim().metrics() under "load/<op>/..."; per-completed-op
  // latency (completion time - issue time) in "load/<op>/latency_usec".
  void run();

  struct Summary {
    std::uint64_t issued = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t per_kind[4] = {0, 0, 0, 0};
    std::string first_error;  // first failed op's error, for diagnostics
  };
  const Summary& summary() const noexcept { return summary_; }
  // One line per op, issue order: "<idx> t=<usec> <kind> u=<key> cs=<node>
  // <ok|fail> lat=<usec>". Deterministic for a given seed + config.
  const std::string& transcript() const noexcept { return transcript_; }

 private:
  struct Pending {
    std::shared_ptr<obj::Runtime::ThreadHandle> handle;
    OpKind kind;
    std::uint64_t key = 0;
    int node = 0;
    sim::TimePoint issued_at{};
  };

  double rateAt(sim::TimePoint t) const;
  void scheduleNext();
  void fire();
  void finalize();

  Cluster& cluster_;
  app::SocialApp& app_;
  GeneratorOptions options_;
  std::mt19937_64 rng_;
  ZipfSampler zipf_;
  std::uint64_t issued_ = 0;
  std::uint64_t registered_rr_ = 0;
  std::vector<Pending> pending_;
  Summary summary_;
  std::string transcript_;
};

}  // namespace clouds::load

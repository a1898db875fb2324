#include "load/generator.hpp"

#include <cmath>

namespace clouds::load {

namespace {
constexpr std::int64_t kReadLimit = 10;  // timeline entries per read
}  // namespace

const char* opKindName(OpKind k) noexcept {
  switch (k) {
    case OpKind::read: return "read";
    case OpKind::post: return "post";
    case OpKind::follow: return "follow";
    case OpKind::register_user: return "register";
  }
  return "?";
}

Generator::Generator(Cluster& cluster, app::SocialApp& app, GeneratorOptions options)
    : cluster_(cluster),
      app_(app),
      options_(options),
      rng_(options.seed),
      zipf_(app.options().seed_users == 0 ? 1 : app.options().seed_users, options.theta,
            options.seed ^ 0x5a5a5a5a5a5a5a5aull) {
  pending_.reserve(options_.ops);
}

double Generator::rateAt(sim::TimePoint t) const {
  const double phase = 2.0 * 3.14159265358979323846 * static_cast<double>(t.count()) /
                       static_cast<double>(options_.diurnal_period.count());
  double r = options_.base_rate * (1.0 + options_.diurnal_amplitude * std::sin(phase));
  return r < 1.0 ? 1.0 : r;  // the curve never quite switches off
}

void Generator::scheduleNext() {
  if (issued_ >= options_.ops) return;
  // Exponential inter-arrival at the instantaneous rate: a non-homogeneous
  // Poisson process (rate re-evaluated per gap, which is accurate for gaps
  // short against the diurnal period).
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
  const double gap_sec = -std::log1p(-u) / rateAt(cluster_.sim().now());
  auto gap = sim::Duration(static_cast<std::int64_t>(gap_sec * 1e9));
  if (gap < sim::usec(1)) gap = sim::usec(1);
  cluster_.sim().schedule(gap, [this] {
    fire();
    scheduleNext();
  });
}

void Generator::fire() {
  Pending p;
  p.issued_at = cluster_.sim().now();

  const double pick = std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
  const Mix& m = options_.mix;
  if (pick < m.read) {
    p.kind = OpKind::read;
  } else if (pick < m.read + m.post) {
    p.kind = OpKind::post;
  } else if (pick < m.read + m.post + m.follow) {
    p.kind = OpKind::follow;
  } else {
    p.kind = OpKind::register_user;
  }

  std::uint64_t key = zipf_.next();
  std::optional<Sysname> hint;
  switch (p.kind) {
    case OpKind::read:
      hint = app_.timelineShardSys(key);
      break;
    case OpKind::post:
      hint = app_.userShardSys(key);
      break;
    case OpKind::follow:
      hint = app_.followShardSys(key);
      break;
    case OpKind::register_user:
      key = registered_rr_++;
      hint = app_.userShardSys(key);
      break;
  }
  p.key = key;
  p.node = cluster_.scheduleComputeServer(hint);

  switch (p.kind) {
    case OpKind::read:
      p.handle = app_.startRead(key, kReadLimit, p.node);
      break;
    case OpKind::post:
      p.handle = app_.startPost(key, "p" + std::to_string(issued_), p.node);
      break;
    case OpKind::follow: {
      // Follower drawn from the same popularity curve; no self-edges.
      std::uint64_t follower = zipf_.next();
      if (follower == key) follower = (follower + 1) % zipf_.n();
      p.handle = app_.startFollow(follower, key, p.node);
      break;
    }
    case OpKind::register_user:
      p.handle = app_.startRegister(key, p.node);
      break;
  }
  ++issued_;
  pending_.push_back(std::move(p));
}

void Generator::run() {
  scheduleNext();
  cluster_.run();
  finalize();
}

void Generator::finalize() {
  auto& metrics = cluster_.sim().metrics();
  transcript_.clear();
  std::uint64_t idx = 0;
  for (const auto& p : pending_) {
    const char* kind = opKindName(p.kind);
    summary_.issued += 1;
    summary_.per_kind[static_cast<int>(p.kind)] += 1;
    metrics.counter(std::string("load/") + kind + "/issued") += 1;
    std::int64_t lat_usec = -1;
    bool ok = false;
    if (p.handle != nullptr && p.handle->done && p.handle->result.ok()) {
      ok = true;
      summary_.ok += 1;
      metrics.counter(std::string("load/") + kind + "/ok") += 1;
      lat_usec = (p.handle->completed_at - p.issued_at).count() / 1000;
      metrics.histogram(std::string("load/") + kind + "/latency_usec").observe(lat_usec);
    } else {
      summary_.failed += 1;
      metrics.counter(std::string("load/") + kind + "/failed") += 1;
      if (summary_.first_error.empty() && p.handle != nullptr && p.handle->done &&
          !p.handle->result.ok()) {
        summary_.first_error = p.handle->result.error().toString();
      } else if (summary_.first_error.empty() && (p.handle == nullptr || !p.handle->done)) {
        summary_.first_error = "op never completed";
      }
    }
    transcript_ += std::to_string(idx++);
    transcript_ += " t=";
    transcript_ += std::to_string(p.issued_at.count() / 1000);
    transcript_ += ' ';
    transcript_ += kind;
    transcript_ += " u=";
    transcript_ += std::to_string(p.key);
    transcript_ += " cs=";
    transcript_ += std::to_string(p.node);
    transcript_ += ok ? " ok" : " fail";
    transcript_ += " lat=";
    transcript_ += std::to_string(lat_usec);
    transcript_ += '\n';
  }
}

}  // namespace clouds::load

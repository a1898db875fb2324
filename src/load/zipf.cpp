#include "load/zipf.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <utility>

namespace clouds::load {
namespace {

double zeta(std::uint64_t n, double theta) {
  // O(n) pow calls, so each (n, θ) is summed once per process: every later
  // sampler (one per universe) reuses the same bits.
  static std::mutex mu;
  static std::map<std::pair<std::uint64_t, double>, double> memo;
  const std::lock_guard<std::mutex> lock(mu);
  auto [it, fresh] = memo.try_emplace({n, theta}, 0.0);
  if (fresh) {
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(static_cast<double>(i), theta);
    it->second = sum;
  }
  return it->second;
}

}  // namespace

ZipfSampler::ZipfSampler(std::uint64_t n, double theta, std::uint64_t seed)
    : n_(n == 0 ? 1 : n),
      theta_(theta),
      alpha_(1.0 / (1.0 - theta)),
      zetan_(zeta(n_, theta)),
      eta_((1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta)) /
           (1.0 - zeta(2, theta) / zetan_)),
      zeta2_(zeta(2, theta)),
      rng_(seed) {}

std::uint64_t ZipfSampler::nextRank() {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const auto rank = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= n_ ? n_ - 1 : rank;
}

std::uint64_t ZipfSampler::scramble(std::uint64_t rank, std::uint64_t n) {
  // FNV-1a over the eight rank bytes.
  std::uint64_t h = 14695981039346656037ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (rank >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h % n;
}

std::uint64_t ZipfSampler::next() { return scramble(nextRank(), n_); }

}  // namespace clouds::load

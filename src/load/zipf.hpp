// Zipf(θ) key sampler — the heavy-tailed popularity distribution of the
// social workload (docs/APP.md §generator).
//
// Uses the Gray et al. rejection-free formula popularised by YCSB: zeta(n,θ)
// is computed once per process for each (n, θ) (O(n), memoized across
// samplers), then each draw is O(1). Rank 1 is the most popular key; ranks
// are scrambled through an FNV-1a hash so the popular keys are spread across
// the id space (and therefore across shards) instead of clustering at small
// ids.
#pragma once

#include <cstdint>
#include <random>

namespace clouds::load {

class ZipfSampler {
 public:
  // n >= 1 keys, theta in [0, 1) (0 = uniform; 0.99 = YCSB's default skew).
  ZipfSampler(std::uint64_t n, double theta, std::uint64_t seed);

  std::uint64_t n() const noexcept { return n_; }

  // Popularity rank in [0, n), 0 = hottest.
  std::uint64_t nextRank();
  // Scrambled key in [0, n): rank pushed through FNV-1a, mod n.
  std::uint64_t next();

  static std::uint64_t scramble(std::uint64_t rank, std::uint64_t n);

 private:
  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2_;
  std::mt19937_64 rng_;
};

}  // namespace clouds::load

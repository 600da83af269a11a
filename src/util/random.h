#ifndef SLIMFAST_UTIL_RANDOM_H_
#define SLIMFAST_UTIL_RANDOM_H_

#include <cstdint>
#include <random>
#include <vector>

#include "util/logging.h"

namespace slimfast {

/// Deterministic random number generator wrapper.
///
/// All stochastic components in the library (data generators, SGD shuffling,
/// train/test splits) draw from an explicitly seeded Rng so
/// that every experiment is reproducible bit-for-bit given its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double Uniform() { return unit_(engine_); }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * Uniform();
  }

  /// Uniform integer in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n) {
    SLIMFAST_DCHECK(n > 0, "UniformInt requires n > 0");
    std::uniform_int_distribution<int64_t> dist(0, n - 1);
    return dist(engine_);
  }

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Standard normal draw scaled to (mean, stddev).
  double Normal(double mean, double stddev) {
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
  }

  /// Draws an index in [0, weights.size()) with probability proportional to
  /// weights[i]. Weights must be non-negative with a positive sum.
  int64_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle in place.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (int64_t i = static_cast<int64_t>(items->size()) - 1; i > 0; --i) {
      int64_t j = UniformInt(i + 1);
      std::swap((*items)[i], (*items)[j]);
    }
  }

  /// Samples k distinct indices from [0, n) uniformly (k <= n), in random
  /// order.
  std::vector<int64_t> SampleWithoutReplacement(int64_t n, int64_t k);

  /// Derives an independent child generator; useful for giving each worker
  /// or each dataset replicate its own stream.
  Rng Fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

}  // namespace slimfast

#endif  // SLIMFAST_UTIL_RANDOM_H_

#include "baselines/accu.h"

#include <cmath>
#include <vector>

#include "util/math.h"
#include "util/stopwatch.h"

namespace slimfast {

namespace {

/// Initial accuracy of sources without labeled claims.
constexpr double kInitAccuracy = 0.8;
constexpr int32_t kMaxIterations = 50;
/// Convergence threshold on the max absolute accuracy change.
constexpr double kTolerance = 1e-4;
/// Accuracy estimates are clamped into [kClampEps, 1 - kClampEps].
constexpr double kClampEps = 1e-3;

}  // namespace

Result<FusionOutput> Accu::Run(const Dataset& dataset,
                               const TrainTestSplit& split, uint64_t seed) {
  (void)seed;
  Stopwatch learn_watch;
  FusionOutput output;
  output.method_name = name();

  const size_t num_sources = static_cast<size_t>(dataset.num_sources());
  std::vector<double> accuracy(num_sources, kInitAccuracy);

  // Initialize accuracies from revealed ground truth where available.
  {
    std::vector<int64_t> labeled(num_sources, 0);
    std::vector<int64_t> correct(num_sources, 0);
    for (ObjectId o : split.train_objects) {
      if (!dataset.HasTruth(o)) continue;
      ValueId truth = dataset.Truth(o);
      for (const SourceClaim& claim : dataset.ClaimsOnObject(o)) {
        ++labeled[static_cast<size_t>(claim.source)];
        if (claim.value == truth) {
          ++correct[static_cast<size_t>(claim.source)];
        }
      }
    }
    for (size_t s = 0; s < num_sources; ++s) {
      if (labeled[s] > 0) {
        accuracy[s] = (static_cast<double>(correct[s]) + 1.0) /
                      (static_cast<double>(labeled[s]) + 2.0);
      }
    }
  }

  // posterior[o] aligned to DomainOf(o).
  std::vector<std::vector<double>> posterior(
      static_cast<size_t>(dataset.num_objects()));
  std::vector<double> scores;

  auto infer_truth = [&]() {
    for (ObjectId o = 0; o < dataset.num_objects(); ++o) {
      const auto& domain = dataset.DomainOf(o);
      auto& post = posterior[static_cast<size_t>(o)];
      if (domain.empty()) {
        post.clear();
        continue;
      }
      // Ground-truth evidence stays clamped.
      if (split.IsTrain(o) && dataset.HasTruth(o)) {
        post.assign(domain.size(), 0.0);
        for (size_t di = 0; di < domain.size(); ++di) {
          if (domain[di] == dataset.Truth(o)) post[di] = 1.0;
        }
        continue;
      }
      const auto& claims = dataset.ClaimsOnObject(o);
      double n = domain.size() > 1 ? static_cast<double>(domain.size() - 1)
                                   : 1.0;
      scores.assign(domain.size(), 0.0);
      for (size_t di = 0; di < domain.size(); ++di) {
        for (const SourceClaim& claim : claims) {
          if (claim.value != domain[di]) continue;
          double a = Clamp(accuracy[static_cast<size_t>(claim.source)],
                           kClampEps, 1.0 - kClampEps);
          scores[di] += std::log(n * a / (1.0 - a));
        }
      }
      SoftmaxInPlace(&scores);
      post = scores;
    }
  };

  for (int32_t iter = 0; iter < kMaxIterations; ++iter) {
    infer_truth();
    // Accuracy update: mean posterior mass of the source's claimed values.
    double max_delta = 0.0;
    for (SourceId s = 0; s < dataset.num_sources(); ++s) {
      const auto& claims = dataset.ClaimsBySource(s);
      if (claims.empty()) continue;
      double sum = 0.0;
      for (const ObjectClaim& claim : claims) {
        const auto& domain = dataset.DomainOf(claim.object);
        const auto& post = posterior[static_cast<size_t>(claim.object)];
        for (size_t di = 0; di < domain.size(); ++di) {
          if (domain[di] == claim.value) {
            sum += post[di];
            break;
          }
        }
      }
      double updated = Clamp(sum / static_cast<double>(claims.size()),
                             kClampEps, 1.0 - kClampEps);
      max_delta =
          std::max(max_delta, std::fabs(updated - accuracy[static_cast<size_t>(s)]));
      accuracy[static_cast<size_t>(s)] = updated;
    }
    if (max_delta < kTolerance) break;
  }
  output.learn_seconds = learn_watch.ElapsedSeconds();

  Stopwatch infer_watch;
  infer_truth();
  output.predicted_values.assign(static_cast<size_t>(dataset.num_objects()),
                                 kNoValue);
  for (ObjectId o = 0; o < dataset.num_objects(); ++o) {
    const auto& domain = dataset.DomainOf(o);
    if (domain.empty()) continue;
    const auto& post = posterior[static_cast<size_t>(o)];
    size_t best = 0;
    for (size_t di = 1; di < domain.size(); ++di) {
      if (post[di] > post[best]) best = di;
    }
    output.predicted_values[static_cast<size_t>(o)] = domain[best];
  }
  output.source_accuracies = std::move(accuracy);
  output.infer_seconds = infer_watch.ElapsedSeconds();
  return output;
}

}  // namespace slimfast

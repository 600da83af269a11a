#ifndef SLIMFAST_CORE_LASSO_H_
#define SLIMFAST_CORE_LASSO_H_

#include <string>
#include <vector>

#include "core/options.h"
#include "data/dataset.h"
#include "data/split.h"
#include "util/random.h"
#include "util/result.h"

namespace slimfast {

/// Options for the Lasso-path analysis (Sec. 5.3.1, Figures 6 and 9).
struct LassoPathOptions {
  /// L1 penalties swept from strongest to weakest. If empty, a geometric
  /// grid of `num_penalties` values in [min_penalty, max_penalty] is used.
  std::vector<double> penalties;
  double max_penalty = 1.0;
  double min_penalty = 1e-3;
  int32_t num_penalties = 20;
  /// ERM solver for each penalty (batch mode recommended for exact zeros).
  ErmOptions erm;

  LassoPathOptions() {
    erm.batch = true;
    erm.epochs = 400;
    erm.l2 = 0.0;
  }
};

/// One point of the Lasso path: the penalty and every feature weight.
struct LassoPathPoint {
  double penalty = 0.0;
  /// Normalized x-axis of the paper's plots: |w|_1 / max |w|_1 over the
  /// path (0 = fully regularized, 1 = least regularized).
  double mu = 0.0;
  std::vector<double> feature_weights;
  int64_t num_nonzero = 0;
};

/// The full path plus per-feature activation metadata.
struct LassoPath {
  std::vector<std::string> feature_names;
  std::vector<LassoPathPoint> points;  ///< ordered strongest → weakest
  /// First path index at which each feature becomes non-zero; -1 if never.
  std::vector<int32_t> activation_index;

  /// Features ordered by activation (earliest first) — the paper reads
  /// feature importance off this ordering.
  std::vector<FeatureId> ImportanceOrder() const;

  /// CSV rendering: penalty, mu, then one column per feature.
  std::string ToCsv() const;
};

/// Computes the Lasso path of SLiMFast's feature weights on the training
/// labels of `split`: for each penalty, fits an L1-regularized model (warm
/// started from the previous penalty) and records the feature weights.
/// Source-indicator weights are disabled so that the explanatory burden
/// falls entirely on the domain features, matching the paper's analysis.
Result<LassoPath> ComputeLassoPath(const Dataset& dataset,
                                   const TrainTestSplit& split,
                                   const LassoPathOptions& options, Rng* rng);

}  // namespace slimfast

#endif  // SLIMFAST_CORE_LASSO_H_

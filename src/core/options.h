#ifndef SLIMFAST_CORE_OPTIONS_H_
#define SLIMFAST_CORE_OPTIONS_H_

#include <cstdint>

#include "exec/options.h"

namespace slimfast {

/// Structural configuration of SLiMFast's probabilistic model (Sec. 3.2).
struct ModelConfig {
  /// Include per-source indicator weights w_s. Disabling them yields a
  /// pure feature model (used by the source-quality-initialization study).
  bool use_source_weights = true;
  /// Include domain-specific feature weights w_k. Disabling them recovers
  /// the Sources-ERM / Sources-EM variants of the paper.
  bool use_feature_weights = true;
  /// Enable the copying-sources extension (Appendix D): pairwise features
  /// firing when two correlated sources agree on a value the model rejects.
  bool use_copying_features = false;
  /// Copying: minimum number of agreeing co-observations for a source pair
  /// to get a pairwise feature.
  int32_t copying_min_agreements = 2;
  /// Copying: cap on the number of pairwise features (highest-agreement
  /// pairs win). 0 disables the cap.
  int64_t copying_max_pairs = 50000;

  /// Structural equality — the compilation cache keys on (dataset
  /// fingerprint, config), so two configs compare equal exactly when they
  /// compile any dataset identically.
  bool operator==(const ModelConfig&) const = default;
};

/// Which loss ERM minimizes.
enum class ErmLoss {
  /// Negative log-likelihood of labeled object values under the posterior
  /// of Eq. 4 — the paper's default ERM objective.
  kObjectPosterior,
  /// Per-observation accuracy log-loss of Definition 7: each claim on a
  /// labeled object is a binary (correct/incorrect) logistic example.
  kAccuracyLogLoss,
};

/// Options for the ERM learner (convex). The object-posterior loss runs
/// AdaGrad-scaled SGD or batch proximal descent, both with the step size
/// 0.5 / √(1 + epoch); the accuracy log-loss runs the one solver over
/// per-source claim counts (see ErmLearner), which reads only `epochs`,
/// `l2`, `l1`, `tolerance` and `patience`.
struct ErmOptions {
  ErmLoss loss = ErmLoss::kObjectPosterior;
  /// Object loss: full-batch proximal gradient descent instead of SGD.
  /// Batch mode gives exact sparsity patterns for the Lasso path.
  bool batch = false;
  /// Cold-start budget: epochs of the object loss, solver iterations of
  /// the accuracy loss (a warm-started relearn runs a quarter of it; see
  /// SlimFast::FitCompiled).
  int32_t epochs = 60;
  /// L2 penalty on all parameters. The default keeps weights bounded when
  /// ground truth is extremely scarce (a handful of labeled objects would
  /// otherwise be interpolated exactly).
  double l2 = 1e-4;
  /// L1 penalty on feature (and copying) parameters only; source-indicator
  /// weights are never L1-shrunk so that the model retains per-source
  /// flexibility (the paper regularizes the domain-feature weights).
  double l1 = 0.0;
  /// Convergence: relative loss change below tolerance for `patience`
  /// consecutive epochs (accuracy loss: solver iterations) stops early.
  double tolerance = 1e-7;
  int32_t patience = 3;
};

/// Options for the EM learner (semi-supervised, Sec. 3.2). The E-step
/// imputes each unlabeled object's MAP value (hard EM, the paper's
/// E-step); EmLearner fixes the prior source accuracy and the
/// convergence test.
struct EmOptions {
  /// Cold-start cap on E-step/M-step rounds. A warm-started run gets a
  /// quarter of it (at least two rounds); the inversion-guard retry, a
  /// cold restart, always gets all of it.
  int32_t max_iterations = 30;
  /// The accuracy-loss solver of the M-step (warm-started each round,
  /// run to its tolerance). EM's label-seeded initialization and
  /// SlimFast::Run's calibration pass fit with it too.
  ErmOptions m_step;

  EmOptions() {
    // Iteration cap of the accuracy-loss solver. Warm M-steps stop on the
    // tolerance within a few iterations; the longest fits are the cold
    // label-seeded ones and Run's calibration pass, which converged within
    // 554 iterations on the four paper simulators at 1% and 10% labels.
    m_step.epochs = 1000;
  }
};

/// Learning algorithm selector.
enum class Algorithm {
  kErm,
  kEm,
  kAuto,  ///< let SLiMFast's optimizer decide (Sec. 4.3)
};

/// Options for SLiMFast's optimizer (Algorithm 2).
struct OptimizerOptions {
  /// Threshold τ on the ERM generalization bound; below it ERM is chosen
  /// outright. The paper uses 0.1.
  double tau = 0.1;
  /// Minimum estimated accuracy margin δ̂ = Â - 0.5 for EM's information
  /// units to count. Theorem 3 bounds EM's error by O(1/(|S|δ) + ...), so
  /// as the margin vanishes the unlabeled observations carry no reliable
  /// information; below this margin the optimizer zeroes the EM units
  /// (the adversarial/near-random regime, e.g. Stocks).
  double min_accuracy_margin = 0.03;
  /// Minimum mean pairwise co-observation count per source for the
  /// agreement-based accuracy estimate (and hence EM's units) to be
  /// trusted. Theorem 3's analysis assumes ≥2 observations per object and
  /// enough overlap to estimate agreement; at ~1 claim per source
  /// (Genomics) the pairwise evidence is a handful of ±1 coin flips.
  double min_coobservations = 20.0;
};

/// Top-level options of the SLiMFast facade.
struct SlimFastOptions {
  ModelConfig model;
  Algorithm algorithm = Algorithm::kAuto;
  OptimizerOptions optimizer;
  ErmOptions erm;
  EmOptions em;
  /// Parallel execution engine configuration (src/exec/). Thread count
  /// never changes results: every parallel stage reduces per-shard
  /// accumulators in fixed shard order (see exec/parallel.h).
  ExecOptions exec;
};

}  // namespace slimfast

#endif  // SLIMFAST_CORE_OPTIONS_H_

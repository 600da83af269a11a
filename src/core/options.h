#ifndef SLIMFAST_CORE_OPTIONS_H_
#define SLIMFAST_CORE_OPTIONS_H_

#include <cstdint>

#include "exec/options.h"
#include "opt/schedule.h"

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
  /// Apply the multiclass vote correction log(|D_o| - 1) per matching
  /// claim (see CompiledInstance::cand_offsets). With more than two candidate
  /// values and wrong claims spread across them, a claim's correct
  /// Naive-Bayes vote is σ_s + log(|D_o| - 1) (ACCU's n factor); without
  /// the offset, sources whose agreement rate is below 0.5 but above
  /// chance would be treated as anti-informative. No effect on binary
  /// domains, where the model is exactly Eq. 4.
  bool multiclass_offset = true;

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
/// SGD or batch proximal descent; the accuracy log-loss runs the one
/// solver over per-source claim counts (see ErmLearner), which reads only
/// `epochs`, `l2`, `l1`, `tolerance` and `patience`.
struct ErmOptions {
  ErmLoss loss = ErmLoss::kObjectPosterior;
  /// Object loss: full-batch proximal gradient descent instead of SGD.
  /// Batch mode gives exact sparsity patterns for the Lasso path.
  bool batch = false;
  /// Object loss: base step size η₀ of the learning-rate schedule.
  double learning_rate = 0.5;
  /// Object loss: epoch-wise decay shape applied to the base step size
  /// (see opt/schedule.h).
  LrDecay decay = LrDecay::kInvSqrt;
  /// Cold-start budget: epochs of the object loss, solver iterations of
  /// the accuracy loss (warm-started relearns run
  /// `WarmStartOptions::budget_scale` of it).
  int32_t epochs = 60;
  /// L2 penalty on all parameters. The default keeps weights bounded when
  /// ground truth is extremely scarce (a handful of labeled objects would
  /// otherwise be interpolated exactly).
  double l2 = 1e-4;
  /// L1 penalty on feature (and copying) parameters only; source-indicator
  /// weights are never L1-shrunk so that the model retains per-source
  /// flexibility (the paper regularizes the domain-feature weights).
  double l1 = 0.0;
  /// Per-coordinate AdaGrad step adaptation for object-loss SGD.
  bool use_adagrad = true;
  /// Convergence: relative loss change below tolerance for `patience`
  /// consecutive epochs (accuracy loss: solver iterations) stops early.
  double tolerance = 1e-7;
  int32_t patience = 3;
};

/// Options for the EM learner (semi-supervised, Sec. 3.2).
struct EmOptions {
  /// Cold-start cap on E-step/M-step rounds.
  int32_t max_iterations = 30;
  /// Iteration cap for a warm-started run; 0 falls back to
  /// max_iterations. Set by the facade from `WarmStartOptions` so the
  /// inversion-guard retry — a from-scratch cold run — keeps the full
  /// cold budget even inside a warm relearn.
  int32_t warm_max_iterations = 0;
  /// Soft EM uses posterior-weighted pseudo-labels; hard EM (the paper's
  /// E-step) uses MAP pseudo-labels.
  bool soft = false;
  /// Initial source accuracy when no ground truth is available to fit an
  /// initial model.
  double init_accuracy = 0.7;
  /// The accuracy-loss solver of the M-step (warm-started each round,
  /// run to its tolerance). EM's label-seeded initialization and
  /// SlimFast::Run's calibration pass fit with it too.
  ErmOptions m_step;
  /// Convergence on the expected log-likelihood.
  double tolerance = 1e-5;
  int32_t patience = 2;

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

/// Warm-start refinement schedule for incremental relearning.
///
/// A long-running `FusionSession` absorbs an ingest batch, delta-compiles
/// the instance, and relearns. The previous fit's weight vector is a
/// near-optimal starting point — the batch perturbed only part of the
/// model — so the relearn seeds from it and runs a short refinement
/// schedule instead of the full cold-start epoch budget.
///
/// `SlimFast::FitCompiled` warm-starts exactly when its caller passes a
/// previous weight vector that fits the parameter layout; `Fit` and `Run`
/// never pass one, so batch runs are untouched by this schedule.
struct WarmStartOptions {
  /// Fraction of the cold-start budget a warm refinement runs: ERM epochs
  /// and EM iterations are scaled by this factor (floors below).
  double budget_scale = 0.25;
  /// Minimum ERM epochs of a warm refinement.
  int32_t min_erm_epochs = 8;
  /// Minimum EM iterations of a warm refinement.
  int32_t min_em_iterations = 2;
};

/// Top-level options of the SLiMFast facade.
struct SlimFastOptions {
  ModelConfig model;
  Algorithm algorithm = Algorithm::kAuto;
  OptimizerOptions optimizer;
  ErmOptions erm;
  EmOptions em;
  /// After an ERM fit, re-calibrate the *reported* source accuracies with
  /// a warm-started accuracy-log-loss fit (Definition 7, with `em.m_step`)
  /// on the labeled observations. The object loss can leave accuracies
  /// uncalibrated once the labeled posteriors saturate (weights stop
  /// moving while A_s is still far from the empirical rate); predictions
  /// are unaffected — only FusionOutput::source_accuracies changes.
  bool calibrate_accuracies = true;
  /// Parallel execution engine configuration (src/exec/). Thread count
  /// never changes results: every parallel stage reduces per-shard
  /// accumulators in fixed shard order (see exec/parallel.h).
  ExecOptions exec;
  /// Reuse compiled instances across fits of the same (dataset, model
  /// config) through the process-wide CompiledInstanceCache, so repeated
  /// runs — eval grids, bench loops, EM restarts — compile once.
  /// Lifetime note: the cache retains up to its LRU capacity (8) of
  /// compiled instances — each holds a columnar copy of the dataset's
  /// observations — for the life of the process. Long-running services
  /// cycling through many large datasets should call
  /// CompiledInstanceCache::Global().Clear() when done with a dataset, or
  /// set this to false to keep compilation scoped to the fit.
  bool use_compilation_cache = true;
  /// Warm-start refinement budget for incremental relearning (see
  /// `WarmStartOptions`). Consulted by `SlimFast::FitCompiled` when the
  /// caller supplies a previous weight vector; plain `Run`/`Fit` calls
  /// never warm-start.
  WarmStartOptions warm_start;
};

}  // namespace slimfast

#endif  // SLIMFAST_CORE_OPTIONS_H_

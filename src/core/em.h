#ifndef SLIMFAST_CORE_EM_H_
#define SLIMFAST_CORE_EM_H_

#include <vector>

#include "core/erm.h"
#include "core/model.h"
#include "core/options.h"
#include "util/random.h"
#include "util/result.h"

namespace slimfast {

/// Statistics of an EM run.
struct EmStats {
  int32_t iterations = 0;
  bool converged = false;
  /// Expected negative log-likelihood at the last E-step (the objective
  /// tracked for convergence).
  double final_expected_nll = 0.0;
};

/// Semi-supervised expectation maximization (Sec. 3.2).
///
/// E-step: compute the posterior of every unlabeled object under the
/// current weights; labeled (ground-truth) objects stay clamped — exactly
/// the evidence semantics of the compiled factor graph. The paper's E-step
/// assigns MAP values (hard EM, the default); soft EM keeps the full
/// posterior as example weights.
///
/// M-step: given the (hard or soft) assignments, the likelihood of the
/// observations factors per claim as Bernoulli(A_s); the M-step therefore
/// fits the accuracy log-loss (Definition 7) over all claims, warm-started
/// from the previous weights. This matches the paper's "parameters are
/// estimated via their maximum likelihood values given v_o" and, unlike
/// re-fitting the object posterior on its own MAP labels, makes real
/// progress each round (the per-claim loss is not saturated by the model's
/// own predictions).
///
/// Initialization: with no usable ground truth, source weights start at
/// logit(init_accuracy) so the first E-step reduces to (weighted) majority
/// vote; with ground truth, an initial ERM fit on the labels seeds the
/// weights.
class EmLearner {
 public:
  explicit EmLearner(EmOptions options) : options_(options) {}

  const EmOptions& options() const { return options_; }

  /// Runs EM on `model` in place. `train_objects` may be empty
  /// (fully unsupervised). The E-step's per-object posterior imputation is
  /// sharded across `exec` (null = serial) with a deterministic reduce, so
  /// thread count never changes the fit. Claims and ground truth come from
  /// the model's compiled instance.
  ///
  /// With `warm_start` set, the model's current weights are taken as the
  /// starting point — initialization (the logit-prior source weights and
  /// the label-seeded fit) is skipped for the first run, so a
  /// warm-started relearn refines the previous fit instead of restarting.
  /// The warm run honors `EmOptions::warm_max_iterations`; the
  /// inversion-guard retry, if triggered, still initializes cold and
  /// keeps the full cold iteration budget.
  Result<EmStats> Fit(const std::vector<ObjectId>& train_objects,
                      SlimFastModel* model, Rng* rng, Executor* exec = nullptr,
                      bool warm_start = false) const;

 private:
  /// One complete EM run (Fit adds the inversion-guard restart on top).
  Result<EmStats> FitOnce(const std::vector<ObjectId>& train_objects,
                          SlimFastModel* model, Rng* rng, bool seed_from_labels,
                          bool warm_start, Executor* exec) const;

  /// MAP accuracy of `model` on the clamped training objects.
  static double TrainAccuracy(const std::vector<ObjectId>& train_objects,
                              const SlimFastModel& model);

  /// Seeds weights before the first E-step.
  void Initialize(const std::vector<LabeledExample>& labeled,
                  const std::vector<ObjectId>& train_objects,
                  SlimFastModel* model, Rng* rng) const;

  EmOptions options_;
};

}  // namespace slimfast

#endif  // SLIMFAST_CORE_EM_H_

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

/// Output of one E-step: the claim counts the M-step fits (a claim on a
/// labeled train object is correct when it matches the truth, any other
/// claim when it matches its object's MAP value) and the negative
/// log-likelihood of the imputed MAP values.
struct EStepCounts {
  SourceClaimCounts counts;
  double nll = 0.0;
};

/// Semi-supervised expectation maximization (Sec. 3.2).
///
/// E-step: compute the posterior of every unlabeled object under the
/// current weights; labeled (ground-truth) objects stay clamped — exactly
/// the evidence semantics of the compiled factor graph. As in the paper,
/// the E-step assigns each unlabeled object its MAP value (hard EM) and
/// emits per-source claim counts (EStepCounts).
///
/// M-step: given the assignments, the likelihood of the observations
/// factors per claim as Bernoulli(A_s); the M-step therefore fits the
/// accuracy log-loss (Definition 7) of the counts, warm-started from the
/// previous weights and solved to ErmOptions::tolerance. This matches the
/// paper's "parameters are estimated via their maximum likelihood values
/// given v_o" and, unlike re-fitting the object posterior on its own MAP
/// labels, makes real progress each round.
///
/// Initialization: source weights start at logit(0.7), so with no usable
/// ground truth the first E-step reduces to majority vote; with ground
/// truth, an initial accuracy-loss fit on the labels seeds the weights.
///
/// Convergence: a relative change of the expected negative
/// log-likelihood below 1e-5 for two consecutive rounds stops the run,
/// as does EmOptions::max_iterations.
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
  /// The warm run gets WarmBudget(max_iterations, 2) rounds; the
  /// inversion-guard retry, if triggered, still initializes cold and
  /// keeps the full cold iteration budget. EM draws no random numbers;
  /// `rng` is accepted for the learners' common call shape and unused.
  Result<EmStats> Fit(const std::vector<ObjectId>& train_objects,
                      SlimFastModel* model, Rng* rng, Executor* exec = nullptr,
                      bool warm_start = false) const;

  /// One E-step at the model's current weights, sharded across `exec`
  /// with a deterministic reduce.
  EStepCounts EStep(const SlimFastModel& model,
                    const std::vector<ObjectId>& train_objects,
                    Executor* exec = nullptr) const;

 private:
  /// One complete EM run (Fit adds the inversion-guard restart on top).
  Result<EmStats> FitOnce(const std::vector<ObjectId>& train_objects,
                          SlimFastModel* model, bool seed_from_labels,
                          bool warm_start, Executor* exec) const;

  /// MAP accuracy of `model` on the clamped training objects.
  static double TrainAccuracy(const std::vector<ObjectId>& train_objects,
                              const SlimFastModel& model);

  /// Seeds weights before the first E-step.
  void Initialize(const std::vector<LabeledExample>& labeled,
                  const std::vector<ObjectId>& train_objects,
                  SlimFastModel* model) const;

  EmOptions options_;
};

}  // namespace slimfast

#endif  // SLIMFAST_CORE_EM_H_

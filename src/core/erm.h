#ifndef SLIMFAST_CORE_ERM_H_
#define SLIMFAST_CORE_ERM_H_

#include <vector>

#include "core/model.h"
#include "core/options.h"
#include "data/observation_store.h"
#include "exec/parallel.h"
#include "util/random.h"
#include "util/result.h"

namespace slimfast {

/// One (possibly weighted) labeled object: compiled row index and the index
/// of the target value within the object's domain. ERM consumes true
/// labels (weight 1); soft EM's M-step consumes posterior-weighted
/// pseudo-labels.
struct LabeledExample {
  int32_t row;
  int32_t target_index;
  double weight = 1.0;
};

/// One labeled observation for the accuracy log-loss of Definition 7:
/// source `source` made a claim that is correct (label 1) or not (label 0).
struct ObservationExample {
  SourceId source;
  double label;
  double weight = 1.0;
};

/// Statistics of a learner run.
struct FitStats {
  double final_loss = 0.0;  ///< mean weighted loss of the last epoch
  int32_t epochs = 0;
  bool converged = false;
};

/// Empirical risk minimization (Sec. 3.2): fits the model weights to
/// labeled data by minimizing a convex loss with SGD (optionally AdaGrad)
/// or full-batch proximal gradient descent.
///
/// L2 regularization applies to every parameter; L1 applies only to the
/// feature and copying parameters (SLiMFast's Lasso analysis operates on
/// domain features, Sec. 5.3.1).
class ErmLearner {
 public:
  explicit ErmLearner(ErmOptions options) : options_(options) {}

  const ErmOptions& options() const { return options_; }

  /// Builds object-posterior examples from the training objects of a split:
  /// one example per observed train object whose true value (as compiled
  /// into `instance`) appears in its observed domain (single-truth
  /// semantics guarantees this for well-formed data).
  static std::vector<LabeledExample> ObjectExamples(
      const CompiledInstance& instance,
      const std::vector<ObjectId>& train_objects);

  /// Builds accuracy-loss examples: one per claim in `store` made on a
  /// labeled train object, in the store's per-object claim order.
  static std::vector<ObservationExample> ObservationExamples(
      const ObservationStore& store,
      const std::vector<ObjectId>& train_objects);

  /// Fits `model` in place on object-posterior examples (Eq. 4 likelihood).
  /// Batch mode shards the per-example gradient accumulation across `exec`
  /// (null = serial; results are identical either way); SGD mode is
  /// inherently sequential — each step reads the previous step's weights —
  /// and always runs serially.
  Result<FitStats> FitObjectLoss(const std::vector<LabeledExample>& examples,
                                 SlimFastModel* model, Rng* rng,
                                 Executor* exec = nullptr) const;

  /// Fits `model` in place on accuracy log-loss examples (Definition 7).
  /// With options().batch set, runs the full-batch fit instead of SGD:
  /// every epoch batches the per-example sigmoids/softplus through the
  /// SIMD kernels and applies one fused AdaGrad + proximal update per
  /// touched parameter (`rng` is unused — no shuffling). Batch and SGD
  /// optimize the same objective but take different paths to it; each is
  /// bit-deterministic on its own.
  Result<FitStats> FitAccuracyLoss(
      const std::vector<ObservationExample>& examples, SlimFastModel* model,
      Rng* rng) const;

  /// Convenience dispatch on options().loss building examples internally
  /// from the model's compiled instance (its rows and its store).
  Result<FitStats> Fit(const std::vector<ObjectId>& train_objects,
                       SlimFastModel* model, Rng* rng,
                       Executor* exec = nullptr) const;

 private:
  ErmOptions options_;
};

}  // namespace slimfast

#endif  // SLIMFAST_CORE_ERM_H_

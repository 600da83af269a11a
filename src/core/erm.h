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

/// One labeled object: compiled row index and the index of the target
/// value within the object's domain.
struct LabeledExample {
  int32_t row;
  int32_t target_index;
};

/// Budget of a warm-started refinement: a quarter of the cold-start
/// budget `cold` (ERM epochs, EM rounds), at least `floor` but never more
/// than `cold`.
int32_t WarmBudget(int32_t cold, int32_t floor);

/// Sufficient statistics of the accuracy log-loss (Definition 7). Every
/// claim is a Bernoulli(A_s) example of its source with a (possibly
/// fractional) correctness target, so the loss and its gradient depend on
/// the claims only through two numbers per source: the claim mass W_s
/// (`mass`) and the correct mass Y_s <= W_s (`correct`).
struct SourceClaimCounts {
  explicit SourceClaimCounts(int32_t num_sources = 0)
      : mass(static_cast<size_t>(num_sources), 0.0),
        correct(static_cast<size_t>(num_sources), 0.0) {}

  /// Adds `other` elementwise (the per-shard fold of the E-step).
  void Add(const SourceClaimCounts& other);

  std::vector<double> mass;
  std::vector<double> correct;
};

/// Statistics of a learner run.
struct FitStats {
  double final_loss = 0.0;  ///< last mean loss (accuracy loss: F below)
  int32_t epochs = 0;       ///< epochs (SGD, batch) or solver iterations
  bool converged = false;
};

/// Empirical risk minimization (Sec. 3.2): fits the model weights to
/// labeled data by minimizing a convex loss.
///
/// The object-posterior loss (Eq. 4) runs SGD (optionally AdaGrad) or
/// full-batch proximal gradient descent over the labeled objects. L2
/// applies to every parameter; L1 only to the feature and copying
/// parameters (SLiMFast's Lasso analysis operates on domain features,
/// Sec. 5.3.1).
///
/// The accuracy log-loss (Definition 7) has one solver, over per-source
/// claim counts (SourceClaimCounts). With σ_s the trust score of source s
/// (the sigma CSR), M = Σ_s W_s, and w the weights, it minimizes
///
///   F(w) = (1/M) Σ_s [W_s·log(1 + e^(−σ_s)) + (W_s − Y_s)·σ_s]
///        + (1/M) Σ_j c_j·[log(1 + e^(w_j)) + log(1 + e^(−w_j))]
///        + Σ_j (l2·m_j/2)·w_j² + Σ_{j feature} l1·m_j·|w_j|
///
/// over the parameters of the sources with claim mass (every other weight
/// is left as it is); m_j is the share of claim mass whose σ_s contains j.
/// The l2 and l1 weights are what SGD applied in expectation: one penalty
/// step per claim that touches the parameter. The second line is a
/// logistic prior. On a source weight (c_j = 1) it is a uniform prior on
/// the accuracy sigmoid(w_s): a featureless source fits Laplace's rule
/// (Y_s + 1) / (W_s + 2), and one with one or two claims cannot fit them
/// exactly and leave the shared features nothing to explain. On a feature
/// weight c_j = 0.03 keeps a handful of labeled claims (EM's label-seeded
/// start) from driving it to extremes yet leaves features free where they
/// carry the signal (genomics). Copying parameters are in no σ_s.
///
/// The solver is FISTA with backtracking and a monotone restart, warm-
/// started from the model's weights; it stops when the objective's change
/// stays below ErmOptions::tolerance for `patience` iterations, or after
/// `epochs`. An iteration costs O(sigma terms of sources with claim mass).
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

  /// Counts the accuracy-loss targets of the labeled train objects in
  /// `store`: every claim adds 1 to its source's mass, and 1 to its
  /// correct mass when it matches the object's truth.
  static SourceClaimCounts ObservationCounts(
      const ObservationStore& store,
      const std::vector<ObjectId>& train_objects);

  /// Fits `model` in place on object-posterior examples (Eq. 4 likelihood).
  /// Precondition: at most one example per row, as ObjectExamples builds
  /// them (checked; a repeated row aborts). Batch mode shards the
  /// per-example gradient accumulation across `exec` (null = serial;
  /// results are identical either way); SGD mode is inherently
  /// sequential — each step reads the previous step's weights — and
  /// always runs serially.
  Result<FitStats> FitObjectLoss(const std::vector<LabeledExample>& examples,
                                 SlimFastModel* model, Rng* rng,
                                 Executor* exec = nullptr) const;

  /// Fits `model` in place on the accuracy log-loss of `counts` (one entry
  /// per source) with the solver of the class comment; bitwise the same in
  /// SIMD and scalar builds. epochs == 0 leaves the weights as they are.
  Result<FitStats> FitAccuracyLoss(const SourceClaimCounts& counts,
                                   SlimFastModel* model) const;

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

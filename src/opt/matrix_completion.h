#ifndef SLIMFAST_OPT_MATRIX_COMPLETION_H_
#define SLIMFAST_OPT_MATRIX_COMPLETION_H_

#include <vector>

#include "data/observation_store.h"
#include "util/result.h"

namespace slimfast {

/// Pairwise source-agreement statistics (the matrix X of Sec. 4.3).
///
/// For sources si, sj with overlapping claims, X_{ij} is the mean of
/// (+1 for agreement, -1 for disagreement) over the objects both observe.
/// Entries without overlap are "missing" — the matrix-completion estimators
/// only use observed entries.
class AgreementMatrix {
 public:
  /// Builds the agreement statistics of `store` (O(Σ_o m_o²) over
  /// per-object claim pairs; cheap for realistic densities).
  explicit AgreementMatrix(const ObservationStore& store);

  int32_t num_sources() const { return num_sources_; }

  /// True if sources i and j share at least one object.
  bool HasOverlap(SourceId i, SourceId j) const;

  /// Mean agreement in [-1, 1]; requires HasOverlap(i, j).
  double Agreement(SourceId i, SourceId j) const;

  /// Number of objects both sources observe.
  int64_t OverlapCount(SourceId i, SourceId j) const;

  /// Number of (i < j) source pairs with overlap.
  int64_t NumObservedPairs() const { return num_observed_pairs_; }

  /// Sum of X_{ij} over all ordered pairs i != j with overlap.
  double SumAgreements() const { return 2.0 * upper_sum_; }

  /// Total (±1) agreement score over all co-observations — the
  /// overlap-weighted numerator Σ_{(i < j)} Σ_{o∈O_i∩O_j} (±1).
  double TotalAgreementScore() const { return total_agreement_score_; }

  /// Total number of co-observations Σ_{(i < j)} |O_i ∩ O_j|.
  int64_t TotalOverlap() const { return total_overlap_; }

  /// Overlap-weighted mean agreement *rate* q̄ in [0, 1]: the fraction of
  /// co-observations that agree. NaN-free: returns 0.5 with no overlap.
  double MeanAgreementRate() const {
    if (total_overlap_ == 0) return 0.5;
    double mean_x = total_agreement_score_ /
                    static_cast<double>(total_overlap_);
    return (mean_x + 1.0) / 2.0;
  }

 private:
  size_t PairIndex(SourceId i, SourceId j) const;

  int32_t num_sources_;
  // Dense upper-triangular storage; fine for the source counts in the
  // paper's datasets (up to a few thousand sources).
  std::vector<double> agree_sum_;
  std::vector<int64_t> overlap_;
  int64_t num_observed_pairs_ = 0;
  double upper_sum_ = 0.0;
  double total_agreement_score_ = 0.0;
  int64_t total_overlap_ = 0;
};

/// Closed-form estimate of the *average* source accuracy (Sec. 4.3):
/// models E[X_{ij}] = µ² with µ = 2A - 1, solves
/// µ̂ = sqrt(mean of observed X_{ij}) and returns A = (µ̂ + 1) / 2.
/// The mean is taken over observed (overlapping) pairs and clamped at 0
/// before the square root, so adversarial instances degrade to A = 0.5.
/// Fails if no source pair overlaps.
Result<double> EstimateAverageAccuracy(const AgreementMatrix& matrix);

/// Options for the generalized rank-1 completion (per-source accuracies).
struct Rank1CompletionOptions {
  double learning_rate = 0.05;
  int32_t max_iterations = 300;
  double tolerance = 1e-9;
  int32_t patience = 3;
  /// Initial µ_i for all sources.
  double init = 0.3;
  /// Weight each entry's squared error by the number of co-observations
  /// (X_ij estimated from k objects has variance ~1/k, so reliable entries
  /// should count more).
  bool weight_by_overlap = true;
  /// Ridge penalty toward µ_i = 0 (accuracy 0.5), in units of observation
  /// weight. Keeps sources whose pairwise evidence is a handful of ±1
  /// single-object agreements from being fit to noise — roughly, a source needs
  /// a few dozen co-observations before its pairwise evidence counts (the
  /// same long-tail caution as CATD's chi-squared shrinkage; the Genomics
  /// sparsity regime).
  double ridge = 30.0;
};

/// Generalized matrix completion mentioned in Sec. 4.3: fits per-source
/// reliabilities µ_i (X_{ij} ≈ µ_i µ_j) by minimizing squared error over
/// observed entries with gradient descent, then maps to per-source accuracy
/// estimates A_i = (clamp(µ_i, -1, 1) + 1) / 2. Fails if no pair overlaps.
Result<std::vector<double>> EstimatePerSourceAccuracy(
    const AgreementMatrix& matrix, const Rank1CompletionOptions& options);

}  // namespace slimfast

#endif  // SLIMFAST_OPT_MATRIX_COMPLETION_H_

#ifndef SLIMFAST_OPT_MATRIX_COMPLETION_H_
#define SLIMFAST_OPT_MATRIX_COMPLETION_H_

#include <vector>

#include "data/observation_store.h"

namespace slimfast {

/// Pairwise source-agreement statistics (the matrix X of Sec. 4.3).
///
/// For sources si, sj with overlapping claims, X_{ij} is the mean of
/// (+1 for agreement, -1 for disagreement) over the objects both observe.
/// Entries without overlap are "missing".
class AgreementMatrix {
 public:
  /// Builds the agreement statistics of `store`: O(Σ_o m_o²) pair visits
  /// plus a zero-filled |S|²/2-entry table (16 bytes per entry). That is
  /// 60 MB for the genomics simulator's 2,750 sources, so the optimizer
  /// does not build one; it reads the same totals from CountAgreement
  /// (core/optimizer.h) in O(claims).
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
  // Dense upper-triangular storage: |S|(|S|-1)/2 entries of each array,
  // 60 MB together at 2,750 sources. For per-pair estimates only.
  std::vector<double> agree_sum_;
  std::vector<int64_t> overlap_;
  int64_t num_observed_pairs_ = 0;
  double total_agreement_score_ = 0.0;
  int64_t total_overlap_ = 0;
};

}  // namespace slimfast

#endif  // SLIMFAST_OPT_MATRIX_COMPLETION_H_

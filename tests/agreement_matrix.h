#ifndef SLIMFAST_TESTS_AGREEMENT_MATRIX_H_
#define SLIMFAST_TESTS_AGREEMENT_MATRIX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/observation_store.h"
#include "util/logging.h"

namespace slimfast {

/// Pairwise source-agreement statistics (the matrix X of Sec. 4.3), kept
/// as the tests' reference oracle: the optimizer reads the same totals
/// from CountAgreement (core/optimizer.h) in O(claims), and the tests
/// check them against this dense build.
///
/// For sources si, sj with overlapping claims, X_{ij} is the mean of
/// (+1 for agreement, -1 for disagreement) over the objects both observe.
/// Entries without overlap are "missing".
class AgreementMatrix {
 public:
  /// Builds the agreement statistics of `store`: O(Σ_o m_o²) pair visits
  /// plus a zero-filled |S|²/2-entry table (16 bytes per entry).
  explicit AgreementMatrix(const ObservationStore& store)
      : num_sources_(store.num_sources()) {
    const size_t pairs =
        static_cast<size_t>(num_sources_) * (num_sources_ - 1) / 2;
    agree_sum_.assign(pairs, 0.0);
    overlap_.assign(pairs, 0);

    const std::vector<SourceId>& sources = store.sources();
    const std::vector<ValueId>& values = store.values();
    for (ObjectId o = 0; o < store.num_objects(); ++o) {
      const IndexRange claims = store.ObjectRange(o);
      for (size_t a = static_cast<size_t>(claims.begin);
           a < static_cast<size_t>(claims.end); ++a) {
        for (size_t b = a + 1; b < static_cast<size_t>(claims.end); ++b) {
          const SourceId i = sources[a];
          const SourceId j = sources[b];
          if (i == j) continue;
          const size_t idx = PairIndex(std::min(i, j), std::max(i, j));
          const double score = values[a] == values[b] ? 1.0 : -1.0;
          agree_sum_[idx] += score;
          total_agreement_score_ += score;
          ++overlap_[idx];
          ++total_overlap_;
        }
      }
    }
    for (int64_t count : overlap_) {
      if (count > 0) ++num_observed_pairs_;
    }
  }

  int32_t num_sources() const { return num_sources_; }

  /// True if sources i and j share at least one object.
  bool HasOverlap(SourceId i, SourceId j) const {
    return OverlapCount(i, j) > 0;
  }

  /// Mean agreement in [-1, 1]; requires HasOverlap(i, j).
  double Agreement(SourceId i, SourceId j) const {
    const size_t idx = PairIndex(std::min(i, j), std::max(i, j));
    SLIMFAST_DCHECK(overlap_[idx] > 0, "Agreement requires overlap");
    return agree_sum_[idx] / static_cast<double>(overlap_[idx]);
  }

  /// Number of objects both sources observe.
  int64_t OverlapCount(SourceId i, SourceId j) const {
    if (i == j) return 0;
    return overlap_[PairIndex(std::min(i, j), std::max(i, j))];
  }

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
    const double mean_x =
        total_agreement_score_ / static_cast<double>(total_overlap_);
    return (mean_x + 1.0) / 2.0;
  }

 private:
  /// Upper-triangular row-major index of (i, j), 0 <= i < j < |S|.
  size_t PairIndex(SourceId i, SourceId j) const {
    SLIMFAST_DCHECK(i >= 0 && j > i && j < num_sources_,
                    "pair index requires 0 <= i < j < |S|");
    const size_t si = static_cast<size_t>(i);
    const size_t sj = static_cast<size_t>(j);
    const size_t n = static_cast<size_t>(num_sources_);
    return si * n - si * (si + 1) / 2 + (sj - si - 1);
  }

  int32_t num_sources_;
  // Dense upper-triangular storage: |S|(|S|-1)/2 entries of each array.
  std::vector<double> agree_sum_;
  std::vector<int64_t> overlap_;
  int64_t num_observed_pairs_ = 0;
  double total_agreement_score_ = 0.0;
  int64_t total_overlap_ = 0;
};

}  // namespace slimfast

#endif  // SLIMFAST_TESTS_AGREEMENT_MATRIX_H_

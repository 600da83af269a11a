#include "opt/matrix_completion.h"

#include <algorithm>
#include <cmath>

#include "opt/convergence.h"
#include "util/logging.h"
#include "util/math.h"

namespace slimfast {

AgreementMatrix::AgreementMatrix(const ObservationStore& store)
    : num_sources_(store.num_sources()) {
  size_t pairs =
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
        SourceId i = sources[a];
        SourceId j = sources[b];
        if (i == j) continue;
        size_t idx = PairIndex(std::min(i, j), std::max(i, j));
        double score = values[a] == values[b] ? 1.0 : -1.0;
        agree_sum_[idx] += score;
        total_agreement_score_ += score;
        ++overlap_[idx];
        ++total_overlap_;
      }
    }
  }
  for (size_t idx = 0; idx < overlap_.size(); ++idx) {
    if (overlap_[idx] > 0) {
      ++num_observed_pairs_;
      upper_sum_ += agree_sum_[idx] / static_cast<double>(overlap_[idx]);
    }
  }
}

size_t AgreementMatrix::PairIndex(SourceId i, SourceId j) const {
  SLIMFAST_DCHECK(i >= 0 && j > i && j < num_sources_,
                  "pair index requires 0 <= i < j < |S|");
  // Upper-triangular row-major: index of (i, j) with i < j.
  size_t si = static_cast<size_t>(i);
  size_t sj = static_cast<size_t>(j);
  size_t n = static_cast<size_t>(num_sources_);
  return si * n - si * (si + 1) / 2 + (sj - si - 1);
}

bool AgreementMatrix::HasOverlap(SourceId i, SourceId j) const {
  if (i == j) return false;
  return overlap_[PairIndex(std::min(i, j), std::max(i, j))] > 0;
}

double AgreementMatrix::Agreement(SourceId i, SourceId j) const {
  size_t idx = PairIndex(std::min(i, j), std::max(i, j));
  SLIMFAST_DCHECK(overlap_[idx] > 0, "Agreement requires overlap");
  return agree_sum_[idx] / static_cast<double>(overlap_[idx]);
}

int64_t AgreementMatrix::OverlapCount(SourceId i, SourceId j) const {
  if (i == j) return 0;
  return overlap_[PairIndex(std::min(i, j), std::max(i, j))];
}

Result<double> EstimateAverageAccuracy(const AgreementMatrix& matrix) {
  if (matrix.NumObservedPairs() == 0) {
    return Status::FailedPrecondition(
        "no overlapping source pairs; cannot estimate average accuracy");
  }
  // µ̂² = mean observed agreement; negative empirical means (worse than
  // random agreement) clamp to 0, i.e. A = 0.5.
  double mean_agreement = matrix.SumAgreements() /
                          (2.0 * static_cast<double>(matrix.NumObservedPairs()));
  double mu_sq = std::max(0.0, mean_agreement);
  double mu = std::sqrt(mu_sq);
  return (mu + 1.0) / 2.0;
}

Result<std::vector<double>> EstimatePerSourceAccuracy(
    const AgreementMatrix& matrix, const Rank1CompletionOptions& options) {
  if (matrix.NumObservedPairs() == 0) {
    return Status::FailedPrecondition(
        "no overlapping source pairs; cannot estimate per-source accuracy");
  }
  int32_t n = matrix.num_sources();
  std::vector<double> mu(static_cast<size_t>(n), options.init);
  std::vector<double> grad(static_cast<size_t>(n), 0.0);
  // Per-source degree (observed pairs) for gradient normalization: without
  // it the step size scales with the number of counterparties and the
  // descent diverges on dense instances.
  std::vector<double> degree(static_cast<size_t>(n), 0.0);
  for (SourceId i = 0; i < n; ++i) {
    for (SourceId j = i + 1; j < n; ++j) {
      if (!matrix.HasOverlap(i, j)) continue;
      double w = options.weight_by_overlap
                     ? static_cast<double>(matrix.OverlapCount(i, j))
                     : 1.0;
      degree[static_cast<size_t>(i)] += w;
      degree[static_cast<size_t>(j)] += w;
    }
  }
  ConvergenceTracker tracker(options.tolerance, options.patience);

  // Full-gradient descent on
  //   1/2 Σ_{observed (i,j)} w_ij (X_ij - µ_i µ_j)² + ridge/2 Σ µ_i².
  // The problem is non-convex but rank-1 with positive diagonal structure;
  // De Sa et al. [35] show SGD converges globally for such problems, and
  // a descent run from a positive init behaves the same way in practice.
  for (int32_t iter = 0; iter < options.max_iterations; ++iter) {
    double loss = 0.0;
    std::fill(grad.begin(), grad.end(), 0.0);
    for (SourceId i = 0; i < n; ++i) {
      for (SourceId j = i + 1; j < n; ++j) {
        if (!matrix.HasOverlap(i, j)) continue;
        double w = options.weight_by_overlap
                       ? static_cast<double>(matrix.OverlapCount(i, j))
                       : 1.0;
        double x = matrix.Agreement(i, j);
        double err = mu[static_cast<size_t>(i)] * mu[static_cast<size_t>(j)] - x;
        loss += 0.5 * w * err * err;
        grad[static_cast<size_t>(i)] += w * err * mu[static_cast<size_t>(j)];
        grad[static_cast<size_t>(j)] += w * err * mu[static_cast<size_t>(i)];
      }
    }
    for (SourceId i = 0; i < n; ++i) {
      size_t si = static_cast<size_t>(i);
      if (degree[si] == 0.0) continue;
      grad[si] += options.ridge * mu[si];
      loss += 0.5 * options.ridge * mu[si] * mu[si];
      mu[si] -= options.learning_rate * grad[si] / (degree[si] + options.ridge);
    }
    if (tracker.Update(loss)) break;
  }

  std::vector<double> accuracies(static_cast<size_t>(n));
  for (SourceId i = 0; i < n; ++i) {
    double m = Clamp(mu[static_cast<size_t>(i)], -1.0, 1.0);
    accuracies[static_cast<size_t>(i)] = (m + 1.0) / 2.0;
  }
  return accuracies;
}

}  // namespace slimfast

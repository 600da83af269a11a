#include "opt/matrix_completion.h"

#include <algorithm>

#include "util/logging.h"

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
  for (int64_t count : overlap_) {
    if (count > 0) ++num_observed_pairs_;
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

}  // namespace slimfast

#include "core/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "util/logging.h"
#include "util/math.h"
#include "util/strings.h"

namespace slimfast {

std::string OptimizerDecision::ToString() const {
  std::ostringstream out;
  out << "decision="
      << (algorithm == Algorithm::kErm ? "ERM" : "EM")
      << (bound_fast_path ? " (bound fast-path)" : "")
      << " erm_bound=" << FormatDouble(erm_bound, 4)
      << " erm_units=" << FormatDouble(erm_units, 1)
      << " em_units=" << FormatDouble(em_units, 1)
      << " est_avg_accuracy=" << FormatDouble(estimated_avg_accuracy, 3);
  return out.str();
}

namespace {

double AccuracyFromTotals(const AgreementTotals& totals) {
  if (totals.overlap == 0) return 0.5;
  // Overlap-weighted mean agreement rate q̄, inverted through the uniform
  // chance-agreement model
  //   q(A) = A² + (1 - A)² / (n̄ - 1),
  // the multiclass generalization of the paper's E[X] = (2A - 1)² identity
  // (n̄ = 2 recovers it exactly). If no accuracy above 0.5 explains q̄ —
  // sources agree no more than chance — the instance is adversarial or
  // uninformative and the estimate degrades to 0.5.
  const double mean_x = static_cast<double>(totals.AgreementScore()) /
                        static_cast<double>(totals.overlap);
  const double q = (mean_x + 1.0) / 2.0;
  // n̄ averages the domain sizes of the objects with two or more claims;
  // every overlapping pair lies on one of them.
  const double objects = static_cast<double>(totals.conflicted_objects);
  const double domains = static_cast<double>(totals.conflicted_domain_sum);
  double n1 = std::max(1.0, domains / objects - 1.0);
  // Solve (1 + 1/n1) A² - (2/n1) A + (1/n1 - q) = 0 for the root >= 0.5.
  double a = 1.0 + 1.0 / n1;
  double b = -2.0 / n1;
  double c = 1.0 / n1 - q;
  double disc = b * b - 4.0 * a * c;
  if (disc <= 0.0) return 0.5;
  double accuracy = (-b + std::sqrt(disc)) / (2.0 * a);
  return Clamp(accuracy, 0.5, 1.0 - 1e-6);
}

}  // namespace

double EmUnits(const ObservationStore& store, double avg_accuracy) {
  double total_units = 0.0;
  for (ObjectId o = 0; o < store.num_objects(); ++o) {
    int64_t m = store.ObjectRange(o).size();
    if (m == 0) continue;
    int64_t num_distinct = store.DomainRange(o).size();
    if (num_distinct < 1) continue;
    // Majority vote wins when the true value gets more than m/|D_o| votes.
    int64_t threshold = m / num_distinct;
    double pe = 1.0 - BinomialCdf(m, threshold, avg_accuracy);
    if (pe >= 0.5) {
      total_units += static_cast<double>(m) * (1.0 - BinaryEntropyBits(pe));
    }
  }
  return total_units;
}

double ErmUnits(const ObservationStore& store, const TrainTestSplit& split) {
  int64_t count = 0;
  for (ObjectId o : split.train_objects) count += store.ObjectRange(o).size();
  return static_cast<double>(count);
}

OptimizerDecision DecideAlgorithm(const Dataset& dataset,
                                  const TrainTestSplit& split,
                                  int32_t num_params,
                                  const OptimizerOptions& options) {
  return DecideAlgorithm(ObservationStore::FromDataset(dataset), split,
                         num_params, options);
}

OptimizerDecision DecideAlgorithm(const ObservationStore& store,
                                  const TrainTestSplit& split,
                                  int32_t num_params,
                                  const OptimizerOptions& options) {
  OptimizerDecision decision;
  double g = ErmUnits(store, split);
  decision.erm_units = g;

  if (store.num_observations() == 0) {
    decision.algorithm = Algorithm::kErm;
    return decision;
  }
  if (g <= 0.0) {
    // No ground truth at all: ERM is undefined, EM is the only option.
    decision.algorithm = Algorithm::kEm;
    decision.erm_bound = std::numeric_limits<double>::infinity();
    decision.estimated_avg_accuracy = AccuracyFromTotals(CountAgreement(store));
    decision.em_units = EmUnits(store, decision.estimated_avg_accuracy);
    return decision;
  }

  decision.erm_bound = std::sqrt(static_cast<double>(num_params) / g) *
                       std::log(std::max(2.0, g));
  if (decision.erm_bound < options.tau) {
    decision.algorithm = Algorithm::kErm;
    decision.bound_fast_path = true;
    return decision;
  }

  const AgreementTotals totals = CountAgreement(store);
  decision.estimated_avg_accuracy = AccuracyFromTotals(totals);
  // Mean pairwise co-observations per source, Σ_o m_o (m_o - 1) / |S|:
  // how much evidence the agreement estimate rests on.
  const double coobservations = 2.0 * static_cast<double>(totals.overlap) /
                                static_cast<double>(store.num_sources());
  // Theorem 3's error bound scales as 1/δ and assumes enough overlap to
  // estimate agreement; with a vanishing estimated margin or almost no
  // pairwise evidence, the unlabeled observations are uninformative for EM.
  if (decision.estimated_avg_accuracy - 0.5 < options.min_accuracy_margin ||
      coobservations < options.min_coobservations) {
    decision.em_units = 0.0;
  } else {
    decision.em_units = EmUnits(store, decision.estimated_avg_accuracy);
  }
  decision.algorithm =
      decision.erm_units < decision.em_units ? Algorithm::kEm
                                             : Algorithm::kErm;
  return decision;
}

AgreementTotals CountAgreement(const ObservationStore& store) {
  AgreementTotals totals;
  const std::vector<ValueId>& values = store.values();
  // Claims per value on the current object; zeroed again after each one.
  std::vector<int64_t> claims_of(static_cast<size_t>(store.num_values()), 0);
#ifndef NDEBUG
  const std::vector<SourceId>& sources = store.sources();
  const size_t num_sources = static_cast<size_t>(store.num_sources());
  std::vector<ObjectId> last_object(num_sources, -1);
#endif
  for (ObjectId o = 0; o < store.num_objects(); ++o) {
    const IndexRange claims = store.ObjectRange(o);
    const int64_t m = claims.size();
    if (m < 2) continue;
    totals.overlap += m * (m - 1) / 2;
    ++totals.conflicted_objects;
    totals.conflicted_domain_sum += store.DomainRange(o).size();
    for (int64_t c = claims.begin; c < claims.end; ++c) {
#ifndef NDEBUG
      // Every pair counted here is a pair of distinct sources because
      // DatasetBuilder, AppendBatch and FromColumns all reject a repeated
      // (source, object) claim.
      const size_t s = static_cast<size_t>(sources[static_cast<size_t>(c)]);
      SLIMFAST_DCHECK(last_object[s] != o,
                      "a source claims an object at most once");
      last_object[s] = o;
#endif
      // The claim agrees with each earlier claim of the same value.
      const size_t v = static_cast<size_t>(values[static_cast<size_t>(c)]);
      totals.agreeing += claims_of[v]++;
    }
    for (int64_t c = claims.begin; c < claims.end; ++c) {
      claims_of[static_cast<size_t>(values[static_cast<size_t>(c)])] = 0;
    }
  }
  return totals;
}

double EstimateAccuracyForUnits(const ObservationStore& store) {
  return AccuracyFromTotals(CountAgreement(store));
}

}  // namespace slimfast

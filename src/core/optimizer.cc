#include "core/optimizer.h"

#include <cmath>
#include <sstream>

#include "opt/matrix_completion.h"
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
    decision.estimated_avg_accuracy = EstimateAccuracyForUnits(store);
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

  decision.estimated_avg_accuracy = EstimateAccuracyForUnits(store);
  // Mean pairwise co-observations per source: how much evidence the
  // agreement estimate rests on.
  double coobservations = 0.0;
  if (store.num_sources() > 0) {
    for (ObjectId o = 0; o < store.num_objects(); ++o) {
      double m = static_cast<double>(store.ObjectRange(o).size());
      coobservations += m * (m - 1.0);
    }
    coobservations /= static_cast<double>(store.num_sources());
  }
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

double EstimateAccuracyForUnits(const ObservationStore& store) {
  AgreementMatrix matrix(store);
  if (matrix.TotalOverlap() == 0) return 0.5;
  // Overlap-weighted mean agreement rate q̄, inverted through the uniform
  // chance-agreement model
  //   q(A) = A² + (1 - A)² / (n̄ - 1),
  // the multiclass generalization of the paper's E[X] = (2A - 1)² identity
  // (n̄ = 2 recovers it exactly). If no accuracy above 0.5 explains q̄ —
  // sources agree no more than chance — the instance is adversarial or
  // uninformative and the estimate degrades to 0.5.
  double q = matrix.MeanAgreementRate();
  double mean_domain = 0.0;
  int64_t conflicted = 0;
  for (ObjectId o = 0; o < store.num_objects(); ++o) {
    if (store.ObjectRange(o).size() < 2) continue;
    mean_domain += static_cast<double>(store.DomainRange(o).size());
    ++conflicted;
  }
  if (conflicted == 0) return 0.5;
  mean_domain /= static_cast<double>(conflicted);
  double n1 = std::max(1.0, mean_domain - 1.0);
  // Solve (1 + 1/n1) A² - (2/n1) A + (1/n1 - q) = 0 for the root >= 0.5.
  double a = 1.0 + 1.0 / n1;
  double b = -2.0 / n1;
  double c = 1.0 / n1 - q;
  double disc = b * b - 4.0 * a * c;
  if (disc <= 0.0) return 0.5;
  double accuracy = (-b + std::sqrt(disc)) / (2.0 * a);
  return Clamp(accuracy, 0.5, 1.0 - 1e-6);
}

}  // namespace slimfast

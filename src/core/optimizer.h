#ifndef SLIMFAST_CORE_OPTIMIZER_H_
#define SLIMFAST_CORE_OPTIMIZER_H_

#include <string>

#include "core/options.h"
#include "data/dataset.h"
#include "data/observation_store.h"
#include "data/split.h"
#include "util/result.h"

namespace slimfast {

/// The optimizer's decision and the evidence behind it (Sec. 4.3).
struct OptimizerDecision {
  Algorithm algorithm = Algorithm::kErm;
  /// True when the ERM generalization bound beat the τ threshold (the
  /// fast path of Algorithm 2, skipping the units comparison).
  bool bound_fast_path = false;
  /// sqrt(|K| / |G|) * log(|G|) — the Theorem 1/2 bound surrogate.
  double erm_bound = 0.0;
  /// Units of information in the ground truth (Σ_{o∈G} m_o).
  double erm_units = 0.0;
  /// Units of information produced by EM's E-step (Algorithm 1).
  double em_units = 0.0;
  /// Matrix-completion estimate of the average source accuracy.
  double estimated_avg_accuracy = 0.5;

  std::string ToString() const;
};

/// Estimates the information units EM's E-step extracts from the unlabeled
/// observations (Algorithm 1, "EMUnits").
///
/// For each object with m observations and |D_o| distinct claimed values,
/// a majority-vote surrogate model with uniform source accuracy
/// `avg_accuracy` recovers the object's value with probability
/// p_e = 1 - BinomialCdf(m, floor(m / |D_o|); avg_accuracy). When
/// p_e >= 0.5 the object contributes m * (1 - H(p_e)) units (H in bits).
///
/// Note: Algorithm 1 as printed omits the multiplication by m, but the
/// worked Example 8 multiplies the per-object gain (1 - H) by the number of
/// observing sources; we follow the example so that EM units and ERM units
/// (which count labeled *observations*) are in the same currency.
double EmUnits(const ObservationStore& store, double avg_accuracy);

/// ERM's units: the number of labeled observations induced by the split —
/// the count of claims on training objects, the sample size |G| entering
/// the ERM bounds.
double ErmUnits(const ObservationStore& store, const TrainTestSplit& split);

/// SLiMFast's optimizer (Algorithm 2): chooses ERM when the generalization
/// bound sqrt(|K|/|G|) log |G| is below τ, otherwise compares ERM and EM
/// information units. `num_params` is the trainable parameter count of the
/// model ( |S| + |K| in the default configuration). Never fails: with no
/// ground truth it returns EM, with no observations ERM.
OptimizerDecision DecideAlgorithm(const ObservationStore& store,
                                  const TrainTestSplit& split,
                                  int32_t num_params,
                                  const OptimizerOptions& options);

/// DecideAlgorithm over the columnar store of `dataset`.
OptimizerDecision DecideAlgorithm(const Dataset& dataset,
                                  const TrainTestSplit& split,
                                  int32_t num_params,
                                  const OptimizerOptions& options);

/// The agreement evidence the optimizer reads, counted in one O(claims)
/// pass over the store. For an object with m claims of which n_v claim
/// value v, every claim pair co-observes the object and the pairs inside
/// each value group agree, so the totals need no source-pair matrix: they
/// equal AgreementMatrix's TotalOverlap() and TotalAgreementScore() exactly
/// (a source claims an object at most once, so no pair is a self-pair).
struct AgreementTotals {
  /// Co-observing claim pairs Σ_o C(m_o, 2).
  int64_t overlap = 0;
  /// Pairs among them claiming the same value, Σ_o Σ_v C(n_{o,v}, 2).
  int64_t agreeing = 0;
  /// Objects with at least two claims.
  int64_t conflicted_objects = 0;
  /// Σ |D_o| over those objects, the numerator of the mean domain size.
  int64_t conflicted_domain_sum = 0;

  /// Σ (±1) over co-observing pairs: agreeing minus disagreeing pairs.
  int64_t AgreementScore() const { return 2 * agreeing - overlap; }
};

/// Counts the AgreementTotals of `store` in O(claims + |values|).
AgreementTotals CountAgreement(const ObservationStore& store);

/// Average-accuracy estimate feeding Algorithm 1: the overlap-weighted
/// mean agreement rate inverted through the uniform chance-agreement model
/// q(A) = A² + (1-A)²/(n̄-1) (the multiclass generalization of the paper's
/// E[X] = (2A-1)² identity). Returns 0.5 when sources agree no better than
/// chance (the adversarial regime) or no pairs overlap.
double EstimateAccuracyForUnits(const ObservationStore& store);

}  // namespace slimfast

#endif  // SLIMFAST_CORE_OPTIMIZER_H_

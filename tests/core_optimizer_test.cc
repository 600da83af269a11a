#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/optimizer.h"
#include "opt/matrix_completion.h"
#include "synth/simulators.h"
#include "test_util.h"
#include "util/math.h"

namespace slimfast {
namespace {

TEST(EmUnitsTest, MatchesExample8ByHand) {
  // 10 sources, binary object, uniform accuracy 0.7: pe = 0.8497,
  // per-object units = 10 * (1 - H(0.8497)) = 3.89.
  DatasetBuilder builder("ex8", 10, 1, 2);
  for (SourceId s = 0; s < 10; ++s) {
    // 6 vs 4 split so the domain has both values.
    SLIMFAST_CHECK_OK(builder.AddObservation(0, s, s < 6 ? 0 : 1));
  }
  Dataset d = std::move(builder).Build().ValueOrDie();
  double units = EmUnits(ObservationStore::FromDataset(d), 0.7);
  EXPECT_NEAR(units, 3.89, 0.02);
}

TEST(EmUnitsTest, SkipsLowConfidenceObjects) {
  // Accuracy 0.5 on a binary object: pe < 0.5 -> contributes nothing.
  DatasetBuilder builder("coin", 10, 1, 2);
  for (SourceId s = 0; s < 10; ++s) {
    SLIMFAST_CHECK_OK(builder.AddObservation(0, s, s < 5 ? 0 : 1));
  }
  Dataset d = std::move(builder).Build().ValueOrDie();
  EXPECT_DOUBLE_EQ(EmUnits(ObservationStore::FromDataset(d), 0.5), 0.0);
}

TEST(EmUnitsTest, HigherAccuracyGivesMoreUnits) {
  Dataset d = testutil::MakePlantedDataset(std::vector<double>(10, 0.7),
                                           100, 1.0, 5);
  ObservationStore store = ObservationStore::FromDataset(d);
  EXPECT_GT(EmUnits(store, 0.9), EmUnits(store, 0.65));
}

TEST(EmUnitsTest, DenserInstanceGivesMoreUnits) {
  std::vector<double> accuracies(50, 0.7);
  Dataset sparse = testutil::MakePlantedDataset(accuracies, 200, 0.1, 5);
  Dataset dense = testutil::MakePlantedDataset(accuracies, 200, 0.6, 5);
  EXPECT_GT(EmUnits(ObservationStore::FromDataset(dense), 0.7),
            EmUnits(ObservationStore::FromDataset(sparse), 0.7));
}

TEST(ErmUnitsTest, CountsLabeledObservations) {
  Dataset d = testutil::MakeFigure1Dataset();
  auto split = testutil::MakePrefixSplit(d, 1);
  ObservationStore store = ObservationStore::FromDataset(d);
  EXPECT_DOUBLE_EQ(ErmUnits(store, split), 3.0);  // object 0 has 3 claims
  auto split2 = testutil::MakePrefixSplit(d, 2);
  EXPECT_DOUBLE_EQ(ErmUnits(store, split2), 5.0);
}

TEST(OptimizerTest, NoGroundTruthForcesEm) {
  Dataset d = testutil::MakePlantedDataset(std::vector<double>(10, 0.8),
                                           100, 1.0, 7);
  auto split = testutil::MakePrefixSplit(d, 0);
  auto decision = DecideAlgorithm(d, split, 10, OptimizerOptions{});
  EXPECT_EQ(decision.algorithm, Algorithm::kEm);
  EXPECT_GT(decision.em_units, 0.0);
}

TEST(OptimizerTest, NoObservationsForcesErm) {
  DatasetBuilder builder("empty", 2, 2, 2);
  SLIMFAST_CHECK_OK(builder.SetTruth(0, 0));
  Dataset d = std::move(builder).Build().ValueOrDie();
  TrainTestSplit split = testutil::MakePrefixSplit(d, 1);
  auto decision = DecideAlgorithm(d, split, 2, OptimizerOptions{});
  EXPECT_EQ(decision.algorithm, Algorithm::kErm);
}

TEST(OptimizerTest, BoundFastPathTriggersWithManyLabels) {
  // Tiny parameter count + many labeled observations drives the bound
  // below tau.
  Dataset d = testutil::MakePlantedDataset(std::vector<double>(5, 0.8),
                                           2000, 1.0, 9);
  auto split = testutil::MakePrefixSplit(d, 1999);
  OptimizerOptions options;
  options.tau = 10.0;  // generous threshold
  auto decision = DecideAlgorithm(d, split, 5, options);
  EXPECT_EQ(decision.algorithm, Algorithm::kErm);
  EXPECT_TRUE(decision.bound_fast_path);
  EXPECT_LT(decision.erm_bound, options.tau);
}

TEST(OptimizerTest, DenseAccurateInstancePrefersEmOverFewLabels) {
  // High accuracy + high density: EM units dwarf a 1-object ground truth.
  Dataset d = testutil::MakePlantedDataset(std::vector<double>(30, 0.85),
                                           500, 0.8, 13);
  auto split = testutil::MakePrefixSplit(d, 1);
  auto decision = DecideAlgorithm(d, split, 30, OptimizerOptions{});
  EXPECT_EQ(decision.algorithm, Algorithm::kEm);
  EXPECT_GT(decision.em_units, decision.erm_units);
  EXPECT_GT(decision.estimated_avg_accuracy, 0.7);
}

TEST(OptimizerTest, AdversarialInstancePrefersErm) {
  // Accuracy ~0.5: agreement clamps to 0.5, EM units vanish, so any
  // ground truth at all favors ERM (the Stocks regime of Table 4).
  Dataset d = testutil::MakePlantedDataset(std::vector<double>(30, 0.5),
                                           300, 0.9, 17);
  // Coin-flip sources leave EM almost no extractable information (the
  // estimated accuracy hovers at 0.5, so p_e barely clears 0.5); even a
  // modest amount of ground truth outweighs it.
  auto split = testutil::MakePrefixSplit(d, 20);
  auto decision = DecideAlgorithm(d, split, 30, OptimizerOptions{});
  EXPECT_EQ(decision.algorithm, Algorithm::kErm);
  EXPECT_NEAR(decision.estimated_avg_accuracy, 0.5, 0.05);
}

TEST(OptimizerTest, MoreLabelsEventuallySwitchToErm) {
  // The Crowd regime of Table 4: a moderately informative instance where
  // EM wins with almost no labels but ERM wins once labels accumulate.
  Dataset d = testutil::MakePlantedDataset(std::vector<double>(20, 0.62),
                                           800, 0.35, 19);
  OptimizerOptions options;
  auto tiny = testutil::MakePrefixSplit(d, 1);
  auto lots = testutil::MakePrefixSplit(d, 790);
  auto decision_tiny = DecideAlgorithm(d, tiny, 20, options);
  auto decision_lots = DecideAlgorithm(d, lots, 20, options);
  EXPECT_EQ(decision_tiny.algorithm, Algorithm::kEm);
  EXPECT_EQ(decision_lots.algorithm, Algorithm::kErm);
}

TEST(OptimizerTest, DecisionStringMentionsChoice) {
  Dataset d = testutil::MakePlantedDataset(std::vector<double>(10, 0.8),
                                           100, 1.0, 21);
  auto split = testutil::MakePrefixSplit(d, 10);
  auto decision = DecideAlgorithm(d, split, 10, OptimizerOptions{});
  std::string s = decision.ToString();
  EXPECT_TRUE(s.find("decision=") != std::string::npos);
  EXPECT_TRUE(s.find("erm_units=") != std::string::npos);
  EXPECT_TRUE(s.find("em_units=") != std::string::npos);
}

/// Tau sweep (the robustness study of Sec. 5.2.3): larger tau makes the
/// fast path harder to trigger, so decisions can only move from ERM-by-
/// bound toward the units comparison.
class TauSweep : public ::testing::TestWithParam<double> {};

TEST_P(TauSweep, DecisionIsAlwaysValid) {
  Dataset d = testutil::MakePlantedDataset(std::vector<double>(15, 0.7),
                                           300, 0.5, 23);
  auto split = testutil::MakePrefixSplit(d, 30);
  OptimizerOptions options;
  options.tau = GetParam();
  auto decision = DecideAlgorithm(d, split, 15, options);
  EXPECT_TRUE(decision.algorithm == Algorithm::kErm ||
              decision.algorithm == Algorithm::kEm);
  EXPECT_GE(decision.erm_units, 0.0);
  EXPECT_GE(decision.em_units, 0.0);
}

INSTANTIATE_TEST_SUITE_P(TauGrid, TauSweep,
                         ::testing::Values(0.01, 0.1, 0.5, 1.0));

// ---------- O(claims) agreement totals vs the source-pair matrix ----------

// The accuracy estimate computed from the dense AgreementMatrix, as the
// optimizer did before its totals were counted per object: the oracle
// for CountAgreement and the estimate built on it.
double MatrixAccuracyEstimate(const ObservationStore& store) {
  AgreementMatrix matrix(store);
  if (matrix.TotalOverlap() == 0) return 0.5;
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
  double a = 1.0 + 1.0 / n1;
  double b = -2.0 / n1;
  double c = 1.0 / n1 - q;
  double disc = b * b - 4.0 * a * c;
  if (disc <= 0.0) return 0.5;
  return Clamp((-b + std::sqrt(disc)) / (2.0 * a), 0.5, 1.0 - 1e-6);
}

// Algorithm 2 over the matrix estimate, with the co-observation evidence
// summed per object in floating point.
OptimizerDecision MatrixReferenceDecision(const ObservationStore& store,
                                          const TrainTestSplit& split,
                                          int32_t num_params,
                                          const OptimizerOptions& options) {
  OptimizerDecision decision;
  double g = ErmUnits(store, split);
  decision.erm_units = g;
  if (store.num_observations() == 0) return decision;
  if (g <= 0.0) {
    decision.algorithm = Algorithm::kEm;
    decision.erm_bound = std::numeric_limits<double>::infinity();
    decision.estimated_avg_accuracy = MatrixAccuracyEstimate(store);
    decision.em_units = EmUnits(store, decision.estimated_avg_accuracy);
    return decision;
  }
  decision.erm_bound = std::sqrt(static_cast<double>(num_params) / g) *
                       std::log(std::max(2.0, g));
  if (decision.erm_bound < options.tau) {
    decision.bound_fast_path = true;
    return decision;
  }
  decision.estimated_avg_accuracy = MatrixAccuracyEstimate(store);
  double coobservations = 0.0;
  for (ObjectId o = 0; o < store.num_objects(); ++o) {
    double m = static_cast<double>(store.ObjectRange(o).size());
    coobservations += m * (m - 1.0);
  }
  coobservations /= static_cast<double>(store.num_sources());
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

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Totals, estimate, and decision of `store` against the matrix oracle,
// bit for bit, under a labeled-fraction sweep and two option sets (the
// defaults, and one that never zeroes the EM units).
void ExpectMatchesMatrix(const Dataset& dataset, const std::string& label) {
  SCOPED_TRACE(label);
  const ObservationStore store = ObservationStore::FromDataset(dataset);
  const AgreementMatrix matrix(store);
  const AgreementTotals totals = CountAgreement(store);
  EXPECT_EQ(totals.overlap, matrix.TotalOverlap());
  EXPECT_EQ(Bits(static_cast<double>(totals.AgreementScore())),
            Bits(matrix.TotalAgreementScore()));
  EXPECT_EQ(Bits(EstimateAccuracyForUnits(store)),
            Bits(MatrixAccuracyEstimate(store)));

  OptimizerOptions permissive;
  permissive.min_accuracy_margin = 0.0;
  permissive.min_coobservations = 0.0;
  const int32_t num_params = store.num_sources() + 1;
  Rng rng(7);
  for (double fraction : {0.0, 0.01, 0.1}) {
    TrainTestSplit split = testutil::MakePrefixSplit(dataset, 0);
    if (fraction > 0.0) {
      auto made = MakeSplit(dataset, fraction, &rng);
      if (!made.ok()) continue;  // no labeled objects
      split = std::move(made).ValueOrDie();
    }
    for (const OptimizerOptions& options : {OptimizerOptions{}, permissive}) {
      SCOPED_TRACE("fraction " + std::to_string(fraction));
      const OptimizerDecision got =
          DecideAlgorithm(store, split, num_params, options);
      const OptimizerDecision want =
          MatrixReferenceDecision(store, split, num_params, options);
      EXPECT_EQ(got.algorithm, want.algorithm);
      EXPECT_EQ(got.bound_fast_path, want.bound_fast_path);
      EXPECT_EQ(Bits(got.erm_bound), Bits(want.erm_bound));
      EXPECT_EQ(Bits(got.erm_units), Bits(want.erm_units));
      EXPECT_EQ(Bits(got.em_units), Bits(want.em_units));
      EXPECT_EQ(Bits(got.estimated_avg_accuracy),
                Bits(want.estimated_avg_accuracy));
    }
  }
}

TEST(AgreementTotalsTest, HandCountedMultiValuedInstance) {
  // Object 0: values {0, 0, 1, 2, 0} -> C(5,2) = 10 pairs, C(3,2) = 3
  // agree. Object 1: one claim, no pairs. Object 2: {3, 3, 1, 1} ->
  // C(4,2) = 6 pairs, 1 + 1 agree. Score = 2 * 5 - 16 = -6.
  DatasetBuilder builder("hand", 5, 3, 4);
  const ValueId object0[] = {0, 0, 1, 2, 0};
  for (SourceId s = 0; s < 5; ++s) {
    SLIMFAST_CHECK_OK(builder.AddObservation(0, s, object0[s]));
  }
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 3, 2));
  const ValueId object2[] = {3, 3, 1, 1};
  for (SourceId s = 0; s < 4; ++s) {
    SLIMFAST_CHECK_OK(builder.AddObservation(2, 4 - s, object2[s]));
  }
  SLIMFAST_CHECK_OK(builder.SetTruth(0, 0));
  SLIMFAST_CHECK_OK(builder.SetTruth(2, 3));
  Dataset d = std::move(builder).Build().ValueOrDie();
  const AgreementTotals totals =
      CountAgreement(ObservationStore::FromDataset(d));
  EXPECT_EQ(totals.overlap, 16);
  EXPECT_EQ(totals.agreeing, 5);
  EXPECT_EQ(totals.AgreementScore(), -6);
  EXPECT_EQ(totals.conflicted_objects, 2);
  EXPECT_EQ(totals.conflicted_domain_sum, 3 + 2);
  ExpectMatchesMatrix(d, "hand");
}

TEST(AgreementTotalsTest, MatchesMatrixOnPaperSimulators) {
  for (const std::string& name : SimulatorNames()) {
    auto sim = MakeSimulatorByName(name, 3);
    ASSERT_TRUE(sim.ok()) << name;
    ExpectMatchesMatrix(sim.ValueOrDie().dataset, name);
  }
}

TEST(AgreementTotalsTest, MatchesMatrixOnRandomStores) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    ExpectMatchesMatrix(testutil::RandomUniverse(seed),
                        "universe " + std::to_string(seed));
  }
  const std::vector<double> accuracies(20, 0.7);
  for (uint64_t seed = 100; seed < 105; ++seed) {
    Dataset d = testutil::MakePlantedDataset(accuracies, 300, 0.5, seed, 4);
    ExpectMatchesMatrix(d, "planted " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace slimfast

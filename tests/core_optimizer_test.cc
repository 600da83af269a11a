#include <cmath>

#include <gtest/gtest.h>

#include "core/optimizer.h"
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

}  // namespace
}  // namespace slimfast

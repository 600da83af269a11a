// Tests for the optimizer's accuracy estimation, the multiclass offsets,
// and the EM-units edge rules added on top of the base Algorithm 1/2.

#include <cmath>

#include <gtest/gtest.h>

#include "agreement_matrix.h"
#include "core/erm.h"
#include "core/model.h"
#include "core/optimizer.h"
#include "test_util.h"
#include "util/math.h"

namespace slimfast {
namespace {

// ---------- EstimateAccuracyForUnits: chance-agreement inversion ----------

TEST(AccuracyForUnitsTest, RecoversPlantedBinaryAccuracy) {
  // Binary, uniform accuracy 0.75: q = A² + (1-A)² = 0.625.
  Dataset d = testutil::MakePlantedDataset(std::vector<double>(25, 0.75),
                                           800, 0.8, 901);
  EXPECT_NEAR(EstimateAccuracyForUnits(ObservationStore::FromDataset(d)),
              0.75, 0.03);
}

TEST(AccuracyForUnitsTest, RecoversPlantedMulticlassAccuracy) {
  // 4 values, accuracy 0.6 with uniform wrong spread: the binary identity
  // would be fooled (q < 0.5) but the multiclass inversion recovers A.
  Dataset d = testutil::MakePlantedDataset(std::vector<double>(25, 0.6),
                                           800, 0.8, 903,
                                           /*num_values=*/4);
  EXPECT_NEAR(EstimateAccuracyForUnits(ObservationStore::FromDataset(d)),
              0.6, 0.05);
}

TEST(AccuracyForUnitsTest, CoinFlipSourcesDegradeToHalf) {
  Dataset d = testutil::MakePlantedDataset(std::vector<double>(25, 0.5),
                                           600, 0.8, 905);
  EXPECT_NEAR(EstimateAccuracyForUnits(ObservationStore::FromDataset(d)),
              0.5, 0.04);
}

TEST(AccuracyForUnitsTest, AdversarialSourcesDegradeToHalf) {
  // Accuracy below chance on 3 values: agreement below the chance rate has
  // no solution with A >= 0.5, so the estimate degrades to 0.5 rather
  // than misreading anti-correlated sources as accurate.
  Dataset d = testutil::MakePlantedDataset(std::vector<double>(25, 0.2),
                                           600, 0.8, 907,
                                           /*num_values=*/3);
  EXPECT_NEAR(EstimateAccuracyForUnits(ObservationStore::FromDataset(d)),
              0.5, 0.05);
}

TEST(AccuracyForUnitsTest, NoOverlapReturnsHalf) {
  DatasetBuilder builder("disjoint", 3, 3, 2);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 1, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(2, 2, 0));
  Dataset d = std::move(builder).Build().ValueOrDie();
  EXPECT_DOUBLE_EQ(
      EstimateAccuracyForUnits(ObservationStore::FromDataset(d)), 0.5);
}

// ---------- AgreementMatrix weighted accessors ----------

TEST(AgreementMatrixTest, TotalsTrackCoObservations) {
  // 3 sources fully agreeing on 4 objects: 3 pairs * 4 co-observations.
  DatasetBuilder builder("agree", 3, 4, 2);
  for (ObjectId o = 0; o < 4; ++o) {
    for (SourceId s = 0; s < 3; ++s) {
      SLIMFAST_CHECK_OK(builder.AddObservation(o, s, 0));
    }
  }
  Dataset d = std::move(builder).Build().ValueOrDie();
  AgreementMatrix m(ObservationStore::FromDataset(d));
  EXPECT_EQ(m.TotalOverlap(), 12);
  EXPECT_DOUBLE_EQ(m.TotalAgreementScore(), 12.0);
  EXPECT_DOUBLE_EQ(m.MeanAgreementRate(), 1.0);
}

TEST(AgreementMatrixTest, MeanAgreementRateMixes) {
  // Two sources: agree on 1 object, disagree on 1.
  DatasetBuilder builder("mix", 2, 2, 2);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 1, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 0, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 1, 1));
  Dataset d = std::move(builder).Build().ValueOrDie();
  AgreementMatrix m(ObservationStore::FromDataset(d));
  EXPECT_EQ(m.TotalOverlap(), 2);
  EXPECT_DOUBLE_EQ(m.MeanAgreementRate(), 0.5);
}

TEST(AgreementMatrixTest, EmptyMatrixRateIsHalf) {
  DatasetBuilder builder("empty", 2, 1, 2);
  Dataset d = std::move(builder).Build().ValueOrDie();
  AgreementMatrix m(ObservationStore::FromDataset(d));
  EXPECT_DOUBLE_EQ(m.MeanAgreementRate(), 0.5);
}

// ---------- Multiclass offsets in the compiled model ----------

TEST(MulticlassOffsetTest, BinaryDomainsHaveZeroOffsets) {
  Dataset d = testutil::MakeFigure1Dataset();
  auto instance = CompileInstance(d, ModelConfig{}).ValueOrDie();
  ASSERT_GT(instance->num_candidates(), 0);
  for (double offset : instance->cand_offsets) {
    EXPECT_DOUBLE_EQ(offset, 0.0);
  }
}

TEST(MulticlassOffsetTest, OffsetCountsClaimsTimesLogN) {
  // One object, 3 distinct values: value 0 claimed twice, 1 once, 2 once.
  DatasetBuilder builder("mc", 4, 1, 3);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 1, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 2, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 3, 2));
  Dataset d = std::move(builder).Build().ValueOrDie();
  auto instance = CompileInstance(d, ModelConfig{}).ValueOrDie();
  const std::vector<double> offsets = testutil::RowOffsets(*instance, 0);
  ASSERT_EQ(offsets.size(), 3u);
  double log_n = std::log(2.0);  // |D_o| - 1 = 2
  EXPECT_NEAR(offsets[0], 2.0 * log_n, 1e-12);
  EXPECT_NEAR(offsets[1], 1.0 * log_n, 1e-12);
  EXPECT_NEAR(offsets[2], 1.0 * log_n, 1e-12);
}

TEST(MulticlassOffsetTest, ZeroWeightPosteriorPrefersPlurality) {
  // With all weights zero, the offsets alone make the most-claimed value
  // the MAP — the sane cold-start behavior for multiclass domains.
  DatasetBuilder builder("plural", 5, 1, 3);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 2));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 1, 2));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 2, 2));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 3, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 4, 0));
  Dataset d = std::move(builder).Build().ValueOrDie();
  SlimFastModel model(CompileInstance(d, ModelConfig{}).ValueOrDie());
  auto predictions = model.PredictAll();
  EXPECT_EQ(predictions[0], 2);
}

// ---------- Optimizer guard rails ----------

TEST(OptimizerGuardsTest, SparsePairwiseEvidenceZeroesEmUnits) {
  // Genomics-like: ~1 claim per source; even if the accuracy estimate is
  // above the margin, the co-observation rule suppresses EM units.
  DatasetBuilder builder("sparse", 200, 100, 2);
  Rng rng(3);
  for (ObjectId o = 0; o < 100; ++o) {
    // Two one-shot sources per object, always agreeing on the truth.
    SLIMFAST_CHECK_OK(builder.AddObservation(o, 2 * o % 200, 0));
    SLIMFAST_CHECK_OK(builder.AddObservation(o, (2 * o + 1) % 200, 0));
    SLIMFAST_CHECK_OK(builder.SetTruth(o, 0));
  }
  Dataset d = std::move(builder).Build().ValueOrDie();
  auto split = testutil::MakePrefixSplit(d, 10);
  OptimizerOptions options;
  options.min_coobservations = 20.0;
  auto decision = DecideAlgorithm(d, split, 200, options);
  EXPECT_DOUBLE_EQ(decision.em_units, 0.0);
  EXPECT_EQ(decision.algorithm, Algorithm::kErm);
}

TEST(OptimizerGuardsTest, MarginRuleZeroesEmUnitsNearChance) {
  Dataset d = testutil::MakePlantedDataset(std::vector<double>(30, 0.5),
                                           400, 0.9, 911);
  auto split = testutil::MakePrefixSplit(d, 5);
  OptimizerOptions options;
  options.min_accuracy_margin = 0.03;
  auto decision = DecideAlgorithm(d, split, 30, options);
  EXPECT_DOUBLE_EQ(decision.em_units, 0.0);
  EXPECT_EQ(decision.algorithm, Algorithm::kErm);
}

TEST(OptimizerGuardsTest, MarginRuleAllowsInformativeInstances) {
  Dataset d = testutil::MakePlantedDataset(std::vector<double>(30, 0.8),
                                           400, 0.9, 913);
  auto split = testutil::MakePrefixSplit(d, 1);
  auto decision = DecideAlgorithm(d, split, 30, OptimizerOptions{});
  EXPECT_GT(decision.em_units, 0.0);
  EXPECT_EQ(decision.algorithm, Algorithm::kEm);
}

// ---------- Fractional labels in the accuracy loss ----------

TEST(FractionalLabelTest, SoftTargetsCalibrateAccuracy) {
  // One source with soft correctness targets q = 0.7 on every claim: the
  // fitted accuracy should approach 0.7.
  DatasetBuilder builder("soft", 1, 50, 2);
  for (ObjectId o = 0; o < 50; ++o) {
    SLIMFAST_CHECK_OK(builder.AddObservation(o, 0, 0));
  }
  Dataset d = std::move(builder).Build().ValueOrDie();
  ModelConfig config;
  config.use_feature_weights = false;
  SlimFastModel model(CompileInstance(d, config).ValueOrDie());
  SourceClaimCounts counts(1);
  counts.mass[0] = 50.0;
  counts.correct[0] = 50.0 * 0.7;
  ErmOptions options;
  options.epochs = 200;
  ErmLearner learner(options);
  ASSERT_TRUE(learner.FitAccuracyLoss(counts, &model).ok());
  EXPECT_NEAR(model.SourceAccuracy(0), 0.7, 0.02);
}

}  // namespace
}  // namespace slimfast

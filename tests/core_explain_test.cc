#include <cmath>

#include <gtest/gtest.h>

#include "core/erm.h"
#include "core/explain.h"
#include "test_util.h"
#include "util/math.h"

namespace slimfast {
namespace {

SlimFastModel MakeWeightedFigure1Model() {
  Dataset d = testutil::MakeFigure1Dataset();
  SlimFastModel model(CompileInstance(d, ModelConfig{}).ValueOrDie());
  // Sources 0 and 2 trusted, source 1 not.
  std::vector<double> w = {Logit(0.9), Logit(0.3), Logit(0.8)};
  model.SetWeights(w);
  return model;
}

TEST(ExplainObjectTest, ReportsPosteriorAndPrediction) {
  Dataset d = testutil::MakeFigure1Dataset();
  SlimFastModel model = MakeWeightedFigure1Model();
  auto explanation = ExplainObject(model, d, 0).ValueOrDie();
  EXPECT_EQ(explanation.object, 0);
  EXPECT_EQ(explanation.candidates, (std::vector<ValueId>{0, 1}));
  // Sources 0 and 2 both claim 0 with high trust: prediction must be 0.
  EXPECT_EQ(explanation.predicted, 0);
  EXPECT_EQ(explanation.runner_up, 1);
  EXPECT_GT(explanation.log_odds_margin, 0.0);
  EXPECT_NEAR(explanation.posterior[0] + explanation.posterior[1], 1.0,
              1e-12);
}

TEST(ExplainObjectTest, MarginMatchesScoreDifference) {
  Dataset d = testutil::MakeFigure1Dataset();
  SlimFastModel model = MakeWeightedFigure1Model();
  auto explanation = ExplainObject(model, d, 0).ValueOrDie();
  // Margin = (sigma_0 + sigma_2) - sigma_1.
  double expected = Logit(0.9) + Logit(0.8) - Logit(0.3);
  EXPECT_NEAR(explanation.log_odds_margin, expected, 1e-9);
}

TEST(ExplainObjectTest, ClaimsSortedByAbsoluteTrust) {
  Dataset d = testutil::MakeFigure1Dataset();
  SlimFastModel model = MakeWeightedFigure1Model();
  auto explanation = ExplainObject(model, d, 0).ValueOrDie();
  ASSERT_EQ(explanation.claims.size(), 3u);
  for (size_t i = 1; i < explanation.claims.size(); ++i) {
    EXPECT_GE(std::fabs(explanation.claims[i - 1].trust_score),
              std::fabs(explanation.claims[i].trust_score));
  }
  // Accuracy fields match sigmoid of trust.
  for (const ClaimContribution& c : explanation.claims) {
    EXPECT_NEAR(c.accuracy, Sigmoid(c.trust_score), 1e-12);
  }
}

TEST(ExplainObjectTest, ValidatesInput) {
  Dataset d = testutil::MakeFigure1Dataset();
  SlimFastModel model = MakeWeightedFigure1Model();
  EXPECT_TRUE(ExplainObject(model, d, 99).status().IsOutOfRange());

  DatasetBuilder builder("gap", 1, 2, 2);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 1));
  Dataset sparse = std::move(builder).Build().ValueOrDie();
  SlimFastModel sparse_model(
      CompileInstance(sparse, ModelConfig{}).ValueOrDie());
  EXPECT_TRUE(ExplainObject(sparse_model, sparse, 1)
                  .status()
                  .IsFailedPrecondition());
}

TEST(ExplainObjectTest, ToStringMentionsKeyNumbers) {
  Dataset d = testutil::MakeFigure1Dataset();
  SlimFastModel model = MakeWeightedFigure1Model();
  auto explanation = ExplainObject(model, d, 0).ValueOrDie();
  std::string s = explanation.ToString();
  EXPECT_NE(s.find("Object 0"), std::string::npos);
  EXPECT_NE(s.find("posterior"), std::string::npos);
  EXPECT_NE(s.find("claims"), std::string::npos);
  EXPECT_NE(s.find("source "), std::string::npos);
}

Dataset MakeFeaturedDataset() {
  DatasetBuilder builder("feat", 2, 1, 2);
  FeatureSpace* fs = builder.mutable_features();
  FeatureId hi = fs->RegisterFeature("traffic=high");
  FeatureId lo = fs->RegisterFeature("traffic=low");
  SLIMFAST_CHECK_OK(fs->SetFeature(0, hi));
  SLIMFAST_CHECK_OK(fs->SetFeature(1, lo));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 1, 0));
  return std::move(builder).Build().ValueOrDie();
}

TEST(ExplainSourceTest, DecomposesSigmaIntoIndicatorAndFeatures) {
  Dataset d = MakeFeaturedDataset();
  SlimFastModel model(CompileInstance(d, ModelConfig{}).ValueOrDie());
  // Params: [w_s0, w_s1, w_hi, w_lo].
  model.SetWeights({0.4, -0.1, 0.8, -0.6});
  auto explanation = ExplainSource(model, d, 0);
  EXPECT_EQ(explanation.source, 0);
  EXPECT_NEAR(explanation.trust_score, 1.2, 1e-12);
  EXPECT_NEAR(explanation.accuracy, Sigmoid(1.2), 1e-12);
  EXPECT_DOUBLE_EQ(explanation.source_weight, 0.4);
  ASSERT_EQ(explanation.feature_names.size(), 1u);
  EXPECT_EQ(explanation.feature_names[0], "traffic=high");
  EXPECT_DOUBLE_EQ(explanation.feature_weights[0], 0.8);
}

TEST(ExplainSourceTest, FeaturesSortedByImpact) {
  DatasetBuilder builder("multi", 1, 1, 2);
  FeatureSpace* fs = builder.mutable_features();
  FeatureId a = fs->RegisterFeature("a");
  FeatureId b = fs->RegisterFeature("b");
  FeatureId c = fs->RegisterFeature("c");
  SLIMFAST_CHECK_OK(fs->SetFeature(0, a));
  SLIMFAST_CHECK_OK(fs->SetFeature(0, b));
  SLIMFAST_CHECK_OK(fs->SetFeature(0, c));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 1));
  Dataset d = std::move(builder).Build().ValueOrDie();
  SlimFastModel model(CompileInstance(d, ModelConfig{}).ValueOrDie());
  model.SetWeights({0.0, 0.1, -0.9, 0.5});  // [w_s0, a, b, c]
  auto explanation = ExplainSource(model, d, 0);
  ASSERT_EQ(explanation.feature_names.size(), 3u);
  EXPECT_EQ(explanation.feature_names[0], "b");
  EXPECT_EQ(explanation.feature_names[1], "c");
  EXPECT_EQ(explanation.feature_names[2], "a");
}

TEST(ExplainSourceTest, ToStringRenders) {
  Dataset d = MakeFeaturedDataset();
  SlimFastModel model(CompileInstance(d, ModelConfig{}).ValueOrDie());
  model.SetWeights({0.4, -0.1, 0.8, -0.6});
  std::string s = ExplainSource(model, d, 1).ToString();
  EXPECT_NE(s.find("Source 1"), std::string::npos);
  EXPECT_NE(s.find("traffic=low"), std::string::npos);
}

/// End to end: a trained model's explanation should attribute the decision
/// to the sources that are empirically accurate.
TEST(ExplainIntegrationTest, TrainedModelExplainsSensibly) {
  std::vector<double> accuracies = {0.95, 0.9, 0.2, 0.25};
  Dataset d = testutil::MakePlantedDataset(accuracies, 300, 1.0, 777);
  ModelConfig config;
  config.use_feature_weights = false;
  SlimFastModel model(CompileInstance(d, config).ValueOrDie());
  ErmLearner learner(ErmOptions{});
  Rng rng(5);
  auto split = testutil::MakePrefixSplit(d, 200);
  ASSERT_TRUE(learner.Fit(d, split.train_objects, &model, &rng).ok());

  ObjectId target = split.test_objects.front();
  auto explanation = ExplainObject(model, d, target).ValueOrDie();
  EXPECT_EQ(explanation.predicted, d.Truth(target));
  // The strongest contribution should come from one of the good sources.
  EXPECT_LT(explanation.claims.front().source, 2);
  EXPECT_GT(explanation.claims.front().accuracy, 0.6);
}

}  // namespace
}  // namespace slimfast

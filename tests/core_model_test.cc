#include <cmath>

#include <gtest/gtest.h>

#include "core/model.h"
#include "test_util.h"
#include "util/math.h"

namespace slimfast {
namespace {

SlimFastModel MakeFigure1Model() {
  Dataset d = testutil::MakeFigure1Dataset();
  return SlimFastModel(CompileInstance(d, ModelConfig{}).ValueOrDie());
}

TEST(ModelTest, ZeroWeightsGiveUniformPosteriorAndHalfAccuracy) {
  SlimFastModel model = MakeFigure1Model();
  for (SourceId s = 0; s < 3; ++s) {
    EXPECT_DOUBLE_EQ(model.SourceScore(s), 0.0);
    EXPECT_DOUBLE_EQ(model.SourceAccuracy(s), 0.5);
  }
  std::vector<double> probs;
  ASSERT_TRUE(model.PosteriorOf(0, &probs));
  ASSERT_EQ(probs.size(), 2u);
  // With all sigma = 0, score(0) = 0 from 2 sources vs score(1) = 0: the
  // posterior is softmax(0, 0) = uniform.
  EXPECT_NEAR(probs[0], 0.5, 1e-12);
}

TEST(ModelTest, SigmaMatchesEquation2) {
  // With w_s = logit(A_s) and no features, SourceAccuracy must equal A_s.
  SlimFastModel model = MakeFigure1Model();
  std::vector<double> w = model.weights();
  w[0] = Logit(0.94);
  w[1] = Logit(0.71);
  w[2] = Logit(0.85);
  model.SetWeights(w);
  EXPECT_NEAR(model.SourceAccuracy(0), 0.94, 1e-12);
  EXPECT_NEAR(model.SourceAccuracy(1), 0.71, 1e-12);
  EXPECT_NEAR(model.SourceAccuracy(2), 0.85, 1e-12);
}

TEST(ModelTest, PosteriorMatchesEquation4ByHand) {
  // Object 0: sources {0: value 0, 1: value 1, 2: value 0}.
  // P(To = 0) ∝ exp(σ0 + σ2); P(To = 1) ∝ exp(σ1).
  SlimFastModel model = MakeFigure1Model();
  std::vector<double> w = {1.0, 0.5, 0.25};
  model.SetWeights(w);
  std::vector<double> probs;
  ASSERT_TRUE(model.PosteriorOf(0, &probs));
  double s0 = std::exp(1.0 + 0.25);
  double s1 = std::exp(0.5);
  EXPECT_NEAR(probs[0], s0 / (s0 + s1), 1e-12);
  EXPECT_NEAR(probs[1], s1 / (s0 + s1), 1e-12);

  // A 3-candidate object with negative source weights: sources
  // {0: value 0, 1: value 1, 2: value 2, 3: value 0}. Every matching claim
  // also adds the multiclass offset log(|D_o| - 1) = log 2, so
  // P(To = 0) ∝ exp(σ0 + σ3 + 2 log 2), P(To = 1) ∝ exp(σ1 + log 2),
  // P(To = 2) ∝ exp(σ2 + log 2).
  DatasetBuilder builder("multiclass", 4, 1, 3);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 1, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 2, 2));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 3, 0));
  Dataset d = std::move(builder).Build().ValueOrDie();
  SlimFastModel multiclass(CompileInstance(d, ModelConfig{}).ValueOrDie());
  std::vector<double> mw = {0.8, -0.6, 0.3, -0.4};
  ASSERT_EQ(multiclass.weights().size(), mw.size());
  multiclass.SetWeights(mw);
  ASSERT_TRUE(multiclass.PosteriorOf(0, &probs));
  ASSERT_EQ(probs.size(), 3u);
  const double log2 = std::log(2.0);
  const double e0 = std::exp(0.8 - 0.4 + 2.0 * log2);
  const double e1 = std::exp(-0.6 + log2);
  const double e2 = std::exp(0.3 + log2);
  const double z = e0 + e1 + e2;
  const CompiledInstance& inst = multiclass.instance();
  const int32_t row = inst.RowIndex(0);
  EXPECT_NEAR(probs[static_cast<size_t>(inst.DomainIndex(row, 0))], e0 / z,
              1e-12);
  EXPECT_NEAR(probs[static_cast<size_t>(inst.DomainIndex(row, 1))], e1 / z,
              1e-12);
  EXPECT_NEAR(probs[static_cast<size_t>(inst.DomainIndex(row, 2))], e2 / z,
              1e-12);
}

TEST(ModelTest, FeatureWeightsEnterSigma) {
  DatasetBuilder builder("f", 2, 1, 2);
  FeatureSpace* fs = builder.mutable_features();
  FeatureId k = fs->RegisterFeature("k");
  SLIMFAST_CHECK_OK(fs->SetFeature(0, k));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 1, 0));
  Dataset d = std::move(builder).Build().ValueOrDie();
  SlimFastModel model(CompileInstance(d, ModelConfig{}).ValueOrDie());
  std::vector<double> w = model.weights();
  ASSERT_EQ(w.size(), 3u);  // 2 sources + 1 feature
  w[0] = 0.3;  // source 0
  w[2] = 0.6;  // feature k
  model.SetWeights(w);
  EXPECT_NEAR(model.SourceScore(0), 0.9, 1e-12);
  EXPECT_NEAR(model.SourceScore(1), 0.0, 1e-12);
  EXPECT_NEAR(model.SourceAccuracy(0), Sigmoid(0.9), 1e-12);
}

TEST(ModelTest, MapIndexPicksArgmax) {
  SlimFastModel model = MakeFigure1Model();
  std::vector<double> w = {2.0, 0.1, 2.0};  // sources 0, 2 trusted
  model.SetWeights(w);
  const int32_t row = model.instance().RowIndex(0);
  EXPECT_EQ(testutil::RowDomain(model.instance(), 0)[static_cast<size_t>(
                model.MapIndex(row))],
            0);
}

TEST(ModelTest, PredictAllMarksUnobserved) {
  DatasetBuilder builder("gap", 1, 3, 2);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 1));
  Dataset d = std::move(builder).Build().ValueOrDie();
  SlimFastModel model(CompileInstance(d, ModelConfig{}).ValueOrDie());
  auto predictions = model.PredictAll();
  ASSERT_EQ(predictions.size(), 3u);
  EXPECT_EQ(predictions[0], 1);
  EXPECT_EQ(predictions[1], kNoValue);
  EXPECT_EQ(predictions[2], kNoValue);
}

TEST(ModelTest, PosteriorOfUnobservedObjectReturnsFalse) {
  DatasetBuilder builder("gap", 1, 2, 2);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 1));
  Dataset d = std::move(builder).Build().ValueOrDie();
  SlimFastModel model(CompileInstance(d, ModelConfig{}).ValueOrDie());
  std::vector<double> probs;
  EXPECT_FALSE(model.PosteriorOf(1, &probs));
}

TEST(ModelTest, ObjectNllConsistentWithPosterior) {
  SlimFastModel model = MakeFigure1Model();
  std::vector<double> w = {0.7, -0.2, 0.4};
  model.SetWeights(w);
  const int32_t row = model.instance().RowIndex(0);
  std::vector<double> probs;
  model.Posterior(row, &probs);
  for (int32_t di = 0; di < 2; ++di) {
    EXPECT_NEAR(model.ObjectNll(row, di),
                -std::log(probs[static_cast<size_t>(di)]), 1e-10);
  }
}

TEST(ModelTest, AllSourceAccuraciesMatchesIndividual) {
  SlimFastModel model = MakeFigure1Model();
  std::vector<double> w = {0.5, -1.0, 2.0};
  model.SetWeights(w);
  auto all = model.AllSourceAccuracies();
  ASSERT_EQ(all.size(), 3u);
  for (SourceId s = 0; s < 3; ++s) {
    EXPECT_DOUBLE_EQ(all[static_cast<size_t>(s)], model.SourceAccuracy(s));
  }
}

TEST(ModelTest, PosteriorSumsToOneOnLargerDomain) {
  Dataset d = testutil::MakePlantedDataset(
      std::vector<double>(8, 0.6), /*num_objects=*/20, /*density=*/1.0,
      /*seed=*/5, /*num_values=*/5);
  SlimFastModel model(CompileInstance(d, ModelConfig{}).ValueOrDie());
  std::vector<double> w(model.weights().size(), 0.37);
  model.SetWeights(w);
  std::vector<double> probs;
  for (ObjectId o = 0; o < d.num_objects(); ++o) {
    if (!model.PosteriorOf(o, &probs)) continue;
    double sum = 0.0;
    for (double p : probs) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-10);
  }
}

}  // namespace
}  // namespace slimfast

#include <gtest/gtest.h>

#include "core/em.h"
#include "eval/metrics.h"
#include "test_util.h"

namespace slimfast {
namespace {

TEST(EmTest, FailsWithoutObservations) {
  DatasetBuilder builder("empty", 1, 1, 2);
  Dataset d = std::move(builder).Build().ValueOrDie();
  SlimFastModel model(CompileInstance(d, ModelConfig{}).ValueOrDie());
  EmLearner learner(EmOptions{});
  Rng rng(1);
  EXPECT_TRUE(learner.Fit({}, &model, &rng).status().IsFailedPrecondition());
}

TEST(EmTest, UnsupervisedRecoversTruthOnDenseAccurateInstance) {
  // 20 sources of accuracy ~0.8, full density, no ground truth revealed:
  // EM should behave like iterated weighted majority and nail the truths.
  std::vector<double> accuracies(20, 0.8);
  Dataset d = testutil::MakePlantedDataset(accuracies, 300, 1.0, 101);
  ModelConfig config;
  config.use_feature_weights = false;
  SlimFastModel model(CompileInstance(d, config).ValueOrDie());
  EmLearner learner(EmOptions{});
  Rng rng(5);
  auto stats = learner.Fit({}, &model, &rng).ValueOrDie();
  EXPECT_GE(stats.iterations, 1);

  auto predictions = model.PredictAll();
  double accuracy =
      ObjectValueAccuracy(d, predictions, d.ObjectsWithTruth()).ValueOrDie();
  EXPECT_GT(accuracy, 0.97);
}

TEST(EmTest, UnsupervisedSourceAccuraciesAreReasonable) {
  std::vector<double> accuracies(16, 0.75);
  accuracies[0] = accuracies[1] = 0.95;
  accuracies[2] = accuracies[3] = 0.55;
  Dataset d = testutil::MakePlantedDataset(accuracies, 400, 1.0, 103);
  ModelConfig config;
  config.use_feature_weights = false;
  SlimFastModel model(CompileInstance(d, config).ValueOrDie());
  EmLearner learner(EmOptions{});
  Rng rng(6);
  ASSERT_TRUE(learner.Fit({}, &model, &rng).ok());
  // Order should be respected: best sources above the weak ones.
  EXPECT_GT(model.SourceAccuracy(0), model.SourceAccuracy(2));
  EXPECT_GT(model.SourceAccuracy(1), model.SourceAccuracy(3));
  EXPECT_NEAR(model.SourceAccuracy(0),
              d.EmpiricalSourceAccuracy(0).ValueOrDie(), 0.12);
}

TEST(EmTest, SemiSupervisedClampsTrainingLabels) {
  // Adversarial instance where unsupervised majority is wrong; labels on
  // half the objects let EM identify the reliable minority.
  std::vector<double> accuracies(9, 0.25);
  accuracies[0] = accuracies[1] = accuracies[2] = 0.95;
  Dataset d = testutil::MakePlantedDataset(accuracies, 300, 1.0, 107);
  ModelConfig config;
  config.use_feature_weights = false;
  auto split = testutil::MakePrefixSplit(d, 150);

  SlimFastModel model(CompileInstance(d, config).ValueOrDie());
  EmLearner learner(EmOptions{});
  Rng rng(8);
  ASSERT_TRUE(learner.Fit(split.train_objects, &model, &rng).ok());
  auto predictions = model.PredictAll();
  double test_accuracy =
      ObjectValueAccuracy(d, predictions, split.test_objects).ValueOrDie();
  EXPECT_GT(test_accuracy, 0.85);
  // And the labeled objects must be predicted at their clamped truth...
  double train_accuracy =
      ObjectValueAccuracy(d, predictions, split.train_objects).ValueOrDie();
  EXPECT_GT(train_accuracy, 0.95);
}

TEST(EmTest, InitAccuracySeedsMajorityVote) {
  // One iteration of hard EM from the prior init must reproduce majority
  // voting on a symmetric instance (all sources share the same weight).
  std::vector<double> accuracies(15, 0.7);
  Dataset d = testutil::MakePlantedDataset(accuracies, 150, 1.0, 113);
  ModelConfig config;
  config.use_feature_weights = false;
  SlimFastModel model(CompileInstance(d, config).ValueOrDie());
  EmOptions options;
  options.max_iterations = 1;
  options.m_step.epochs = 0;  // E-step only: pure majority vote
  EmLearner learner(options);
  Rng rng(10);
  ASSERT_TRUE(learner.Fit({}, &model, &rng).ok());
  // With init logit(0.7) on every source, MAP = majority value.
  auto predictions = model.PredictAll();
  int64_t majority_matches = 0;
  int64_t total = 0;
  for (ObjectId o = 0; o < d.num_objects(); ++o) {
    const auto& claims = d.ClaimsOnObject(o);
    if (claims.empty()) continue;
    int64_t zeros = 0;
    for (const auto& claim : claims) {
      if (claim.value == 0) ++zeros;
    }
    ValueId majority =
        zeros * 2 >= static_cast<int64_t>(claims.size()) ? 0 : 1;
    ++total;
    if (predictions[static_cast<size_t>(o)] == majority) ++majority_matches;
  }
  // Ties can break either way; expect near-perfect agreement.
  EXPECT_GT(static_cast<double>(majority_matches) /
                static_cast<double>(total),
            0.95);
}

TEST(EmTest, DensityImprovesEmQuality) {
  // Theorem 3 shape: higher density -> lower source-accuracy error.
  std::vector<double> accuracies(40);
  Rng acc_rng(7);
  for (auto& a : accuracies) a = 0.55 + 0.35 * acc_rng.Uniform();

  auto run = [&](double density) {
    Dataset d =
        testutil::MakePlantedDataset(accuracies, 500, density, 211);
    ModelConfig config;
    config.use_feature_weights = false;
    SlimFastModel model(CompileInstance(d, config).ValueOrDie());
    EmLearner learner(EmOptions{});
    Rng rng(3);
    SLIMFAST_CHECK_OK(learner.Fit({}, &model, &rng).status());
    double error = 0.0;
    int64_t count = 0;
    for (SourceId s = 0; s < d.num_sources(); ++s) {
      auto empirical = d.EmpiricalSourceAccuracy(s);
      if (!empirical.ok()) continue;
      error += std::fabs(model.SourceAccuracy(s) - empirical.ValueOrDie());
      ++count;
    }
    return error / static_cast<double>(count);
  };

  double sparse_error = run(0.05);
  double dense_error = run(0.8);
  EXPECT_LT(dense_error, sparse_error);
  EXPECT_LT(dense_error, 0.1);
}

TEST(EmTest, ExpectedNllDecreasesOrConverges) {
  std::vector<double> accuracies(10, 0.7);
  Dataset d = testutil::MakePlantedDataset(accuracies, 100, 1.0, 301);
  ModelConfig config;
  config.use_feature_weights = false;

  EmOptions few;
  few.max_iterations = 2;
  SlimFastModel model_few(CompileInstance(d, config).ValueOrDie());
  Rng rng1(1);
  auto stats_few = EmLearner(few).Fit({}, &model_few, &rng1).ValueOrDie();

  EmOptions many;
  many.max_iterations = 15;
  SlimFastModel model_many(CompileInstance(d, config).ValueOrDie());
  Rng rng2(1);
  auto stats_many = EmLearner(many).Fit({}, &model_many, &rng2).ValueOrDie();

  EXPECT_LE(stats_many.final_expected_nll,
            stats_few.final_expected_nll + 1e-6);
}

}  // namespace
}  // namespace slimfast

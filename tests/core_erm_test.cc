#include <cmath>

#include <gtest/gtest.h>

#include "core/em.h"
#include "core/erm.h"
#include "eval/metrics.h"
#include "test_util.h"
#include "util/math.h"

namespace slimfast {
namespace {

TEST(ErmExamplesTest, ObjectExamplesFilterUnusable) {
  Dataset d = testutil::MakeFigure1Dataset();
  auto instance = CompileInstance(d, ModelConfig{}).ValueOrDie();
  auto examples = ErmLearner::ObjectExamples(*instance, {0, 1});
  // Object 1's truth (1) is in its domain {1}; object 0's truth (0) is in
  // {0,1}: both usable.
  EXPECT_EQ(examples.size(), 2u);
  EXPECT_EQ(examples[0].target_index, 0);  // truth 0 at domain index 0
  EXPECT_EQ(examples[1].target_index, 0);  // domain of object 1 is {1}
}

TEST(ErmExamplesTest, SkipsTruthOutsideDomain) {
  DatasetBuilder builder("odd", 1, 1, 3);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 1));
  SLIMFAST_CHECK_OK(builder.SetTruth(0, 2));  // nobody claimed 2
  Dataset d = std::move(builder).Build().ValueOrDie();
  auto instance = CompileInstance(d, ModelConfig{}).ValueOrDie();
  EXPECT_TRUE(ErmLearner::ObjectExamples(*instance, {0}).empty());
}

TEST(ErmExamplesTest, ObservationCountsLabelCorrectness) {
  Dataset d = testutil::MakeFigure1Dataset();
  SourceClaimCounts counts =
      ErmLearner::ObservationCounts(ObservationStore::FromDataset(d), {0});
  // Object 0 truth=0: source 0 claims 0 (correct), source 1 claims 1
  // (wrong), source 2 claims 0 (correct).
  ASSERT_EQ(counts.mass.size(), 3u);
  EXPECT_EQ(counts.mass, (std::vector<double>{1.0, 1.0, 1.0}));
  EXPECT_EQ(counts.correct, (std::vector<double>{1.0, 0.0, 1.0}));
}

TEST(ErmTest, FailsWithoutExamples) {
  Dataset d = testutil::MakeFigure1Dataset();
  SlimFastModel model(CompileInstance(d, ModelConfig{}).ValueOrDie());
  ErmLearner learner(ErmOptions{});
  Rng rng(1);
  EXPECT_TRUE(learner.FitObjectLoss({}, &model, &rng)
                  .status()
                  .IsFailedPrecondition());
  EXPECT_TRUE(learner
                  .FitAccuracyLoss(
                      SourceClaimCounts(model.instance().model->num_sources),
                      &model)
                  .status()
                  .IsFailedPrecondition());
}

TEST(ErmTest, LearnsToSeparateGoodFromBadSources) {
  // 6 accurate sources and 6 inaccurate ones, full density.
  std::vector<double> accuracies(12, 0.9);
  for (size_t s = 6; s < 12; ++s) accuracies[s] = 0.2;
  Dataset d = testutil::MakePlantedDataset(accuracies, 300, 1.0, 42);

  ModelConfig config;
  config.use_feature_weights = false;
  SlimFastModel model(CompileInstance(d, config).ValueOrDie());
  ErmLearner learner(ErmOptions{});
  Rng rng(7);
  auto split = testutil::MakePrefixSplit(d, 150);
  auto stats = learner.Fit(split.train_objects, &model, &rng);
  ASSERT_TRUE(stats.ok()) << stats.status();

  // Note: the object-posterior loss is discriminative — once the labeled
  // posteriors saturate, gradients vanish, so on a separable instance like
  // this one the weights stop short of the calibrated extremes (the
  // accuracy log-loss of Definition 7 calibrates exactly; see
  // AccuracyLossRecoverEmpiricalRates). We therefore assert ordering and a
  // clear margin rather than calibrated values.
  for (SourceId s = 0; s < 6; ++s) {
    EXPECT_GT(model.SourceAccuracy(s), 0.7) << "good source " << s;
  }
  for (SourceId s = 6; s < 12; ++s) {
    EXPECT_LT(model.SourceAccuracy(s), 0.55) << "bad source " << s;
    EXPECT_GT(model.SourceAccuracy(0) - model.SourceAccuracy(s), 0.2);
  }
}

TEST(ErmTest, PredictionsBeatMajorityOnAdversarialInstance) {
  // Majority of sources are wrong (accuracy 0.3); a minority is reliable.
  std::vector<double> accuracies(9, 0.3);
  accuracies[0] = accuracies[1] = accuracies[2] = 0.95;
  Dataset d = testutil::MakePlantedDataset(accuracies, 400, 1.0, 11);

  ModelConfig config;
  config.use_feature_weights = false;
  SlimFastModel model(CompileInstance(d, config).ValueOrDie());
  ErmLearner learner(ErmOptions{});
  Rng rng(3);
  auto split = testutil::MakePrefixSplit(d, 80);
  ASSERT_TRUE(learner.Fit(split.train_objects, &model, &rng).ok());

  auto predictions = model.PredictAll();
  double accuracy =
      ObjectValueAccuracy(d, predictions, split.test_objects).ValueOrDie();
  // All truths are value 0; trusting the reliable minority should recover
  // nearly everything, while majority vote would hover near chance.
  EXPECT_GT(accuracy, 0.9);
}

TEST(ErmTest, AccuracyLossRecoverEmpiricalRates) {
  std::vector<double> accuracies = {0.85, 0.55, 0.3};
  Dataset d = testutil::MakePlantedDataset(accuracies, 500, 1.0, 19);
  ModelConfig config;
  config.use_feature_weights = false;
  SlimFastModel model(CompileInstance(d, config).ValueOrDie());
  ErmOptions options;
  options.loss = ErmLoss::kAccuracyLogLoss;
  options.epochs = 100;
  ErmLearner learner(options);
  Rng rng(5);
  auto split = testutil::MakePrefixSplit(d, 400);
  ASSERT_TRUE(learner.Fit(split.train_objects, &model, &rng).ok());
  for (SourceId s = 0; s < 3; ++s) {
    double empirical = d.EmpiricalSourceAccuracy(s).ValueOrDie();
    EXPECT_NEAR(model.SourceAccuracy(s), empirical, 0.08) << s;
  }
}

TEST(ErmTest, BatchAndSgdAgreeOnPredictions) {
  std::vector<double> accuracies = {0.9, 0.9, 0.2, 0.2, 0.6};
  Dataset d = testutil::MakePlantedDataset(accuracies, 200, 1.0, 23);
  ModelConfig config;
  config.use_feature_weights = false;
  auto split = testutil::MakePrefixSplit(d, 100);

  SlimFastModel sgd_model(CompileInstance(d, config).ValueOrDie());
  ErmOptions sgd_options;
  sgd_options.epochs = 80;
  Rng rng1(1);
  ASSERT_TRUE(ErmLearner(sgd_options)
                  .Fit(split.train_objects, &sgd_model, &rng1)
                  .ok());

  SlimFastModel batch_model(CompileInstance(d, config).ValueOrDie());
  ErmOptions batch_options;
  batch_options.batch = true;
  batch_options.epochs = 600;
  Rng rng2(2);
  ASSERT_TRUE(ErmLearner(batch_options)
                  .Fit(split.train_objects, &batch_model, &rng2)
                  .ok());

  auto p1 = sgd_model.PredictAll();
  auto p2 = batch_model.PredictAll();
  double acc1 = ObjectValueAccuracy(d, p1, split.test_objects).ValueOrDie();
  double acc2 = ObjectValueAccuracy(d, p2, split.test_objects).ValueOrDie();
  EXPECT_NEAR(acc1, acc2, 0.05);
}

TEST(ErmTest, L1ZeroesFeatureWeightsOnly) {
  // Dataset with one informative setup; strong L1 must zero feature
  // weights but leave source weights trainable.
  DatasetBuilder builder("l1", 4, 60, 2);
  FeatureSpace* fs = builder.mutable_features();
  FeatureId k = fs->RegisterFeature("noise");
  SLIMFAST_CHECK_OK(fs->SetFeature(0, k));
  SLIMFAST_CHECK_OK(fs->SetFeature(2, k));
  Rng gen(31);
  for (ObjectId o = 0; o < 60; ++o) {
    for (SourceId s = 0; s < 4; ++s) {
      double a = s < 2 ? 0.9 : 0.4;
      SLIMFAST_CHECK_OK(
          builder.AddObservation(o, s, gen.Bernoulli(a) ? 0 : 1));
    }
    SLIMFAST_CHECK_OK(builder.SetTruth(o, 0));
  }
  Dataset d = std::move(builder).Build().ValueOrDie();

  SlimFastModel model(CompileInstance(d, ModelConfig{}).ValueOrDie());
  ErmOptions options;
  options.batch = true;
  options.epochs = 300;
  options.l1 = 5.0;
  ErmLearner learner(options);
  Rng rng(3);
  auto split = testutil::MakePrefixSplit(d, 40);
  ASSERT_TRUE(learner.Fit(split.train_objects, &model, &rng).ok());

  const ParamLayout& layout = model.layout();
  EXPECT_DOUBLE_EQ(
      model.weights()[static_cast<size_t>(layout.feature_offset)], 0.0);
  // Source weights survive.
  double source_norm = 0.0;
  for (int32_t s = 0; s < layout.num_source_params; ++s) {
    source_norm += std::fabs(model.weights()[static_cast<size_t>(s)]);
  }
  EXPECT_GT(source_norm, 0.1);
}

TEST(ErmTest, ConvergenceStopsEarly) {
  Dataset d = testutil::MakePlantedDataset({0.9, 0.8, 0.7}, 50, 1.0, 2);
  ModelConfig config;
  config.use_feature_weights = false;
  SlimFastModel model(CompileInstance(d, config).ValueOrDie());
  ErmOptions options;
  options.epochs = 5000;
  options.tolerance = 1e-3;
  options.patience = 2;
  ErmLearner learner(options);
  Rng rng(4);
  auto split = testutil::MakePrefixSplit(d, 30);
  auto stats = learner.Fit(split.train_objects, &model, &rng).ValueOrDie();
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(stats.epochs, 5000);
}

/// A planted binary instance whose sources carry features: "good" on the
/// accurate sources, "bad" on the inaccurate ones, and a "noise" feature
/// with no signal, so an L1-penalized fit leaves some feature weights at
/// zero and others away from it.
Dataset MakeFeaturedDataset() {
  const std::vector<double> accuracy = {0.9, 0.85, 0.9, 0.8,
                                        0.35, 0.3, 0.6, 0.65};
  const int32_t num_sources = static_cast<int32_t>(accuracy.size());
  DatasetBuilder builder("featured", num_sources, 150, 2);
  FeatureSpace* fs = builder.mutable_features();
  const FeatureId good = fs->RegisterFeature("good");
  const FeatureId bad = fs->RegisterFeature("bad");
  const FeatureId noise = fs->RegisterFeature("noise");
  for (SourceId s : {0, 1, 2, 3}) SLIMFAST_CHECK_OK(fs->SetFeature(s, good));
  for (SourceId s : {4, 5}) SLIMFAST_CHECK_OK(fs->SetFeature(s, bad));
  for (SourceId s : {0, 4, 6}) SLIMFAST_CHECK_OK(fs->SetFeature(s, noise));
  Rng rng(17);
  for (ObjectId o = 0; o < 150; ++o) {
    const ValueId truth = static_cast<ValueId>(rng.UniformInt(2));
    for (SourceId s = 0; s < num_sources; ++s) {
      if (!rng.Bernoulli(0.7)) continue;
      const bool correct = rng.Bernoulli(accuracy[static_cast<size_t>(s)]);
      SLIMFAST_CHECK_OK(
          builder.AddObservation(o, s, correct ? truth : 1 - truth));
    }
    SLIMFAST_CHECK_OK(builder.SetTruth(o, truth));
  }
  return std::move(builder).Build().ValueOrDie();
}

// The accuracy-loss fit reaches the optimum of the objective erm.h
// defines. The gradient is recomputed here by brute force, one Bernoulli
// example per labeled claim, with the penalty weights rebuilt from their
// definition; the fit must satisfy the L1 optimality (KKT) conditions.
TEST(ErmTest, AccuracyLossFitSatisfiesKktConditions) {
  Dataset d = MakeFeaturedDataset();
  SlimFastModel model(CompileInstance(d, ModelConfig{}).ValueOrDie());
  ErmOptions options;
  options.loss = ErmLoss::kAccuracyLogLoss;
  options.l1 = 0.01;
  options.l2 = 1e-3;
  options.tolerance = 1e-15;
  options.epochs = 20000;
  auto split = testutil::MakePrefixSplit(d, 100);
  Rng rng(2);
  ASSERT_TRUE(ErmLearner(options).Fit(split.train_objects, &model, &rng).ok());

  const CompiledInstance& inst = model.instance();
  const ParamLayout& layout = model.layout();
  const std::vector<double>& w = model.weights();
  auto sigma = [&](SourceId s) {
    double sum = 0.0;
    for (int64_t t = inst.sigma_begin[static_cast<size_t>(s)];
         t < inst.sigma_begin[static_cast<size_t>(s) + 1]; ++t) {
      sum += inst.sigma_coeff[static_cast<size_t>(t)] *
             w[static_cast<size_t>(inst.sigma_param[static_cast<size_t>(t)])];
    }
    return sum;
  };
  std::vector<double> loss_grad(w.size(), 0.0);
  std::vector<double> touching(w.size(), 0.0);
  double total = 0.0;
  for (ObjectId o : split.train_objects) {
    const ValueId truth = d.Truth(o);
    for (const auto& claim : d.ClaimsOnObject(o)) {
      const double y = claim.value == truth ? 1.0 : 0.0;
      const double a = 1.0 / (1.0 + std::exp(-sigma(claim.source)));
      for (int64_t t = inst.sigma_begin[static_cast<size_t>(claim.source)];
           t < inst.sigma_begin[static_cast<size_t>(claim.source) + 1]; ++t) {
        const size_t j =
            static_cast<size_t>(inst.sigma_param[static_cast<size_t>(t)]);
        loss_grad[j] += inst.sigma_coeff[static_cast<size_t>(t)] * (a - y);
        touching[j] += 1.0;
      }
      total += 1.0;
    }
  }
  int32_t zeros = 0;
  int32_t nonzero_features = 0;
  for (size_t j = 0; j < w.size(); ++j) {
    if (touching[j] == 0.0) continue;
    const ParamId p = static_cast<ParamId>(j);
    const double share = touching[j] / total;
    const double l1 = layout.IsSourceParam(p) ? 0.0 : options.l1 * share;
    double g = loss_grad[j] / total + options.l2 * share * w[j];
    // The logistic prior: c·d/dw [log(1 + e^w) + log(1 + e^-w)] / M.
    const double c = layout.IsSourceParam(p) ? 1.0 : 0.03;
    g += c * (2.0 / (1.0 + std::exp(-w[j])) - 1.0) / total;
    if (w[j] == 0.0) {
      ++zeros;
      EXPECT_LE(std::fabs(g), l1 + 1e-6) << "param " << j;
    } else {
      if (!layout.IsSourceParam(p)) ++nonzero_features;
      EXPECT_NEAR(g + l1 * (w[j] > 0.0 ? 1.0 : -1.0), 0.0, 1e-6)
          << "param " << j;
    }
  }
  // Both branches of the conditions are exercised.
  EXPECT_GT(zeros, 0);
  EXPECT_GT(nonzero_features, 0);
}

// The E-step's per-source counts equal a per-claim recount: labeled train
// claims against the truth, every other claim against its object's MAP
// value.
TEST(ErmTest, EStepCountsEqualPerClaimRecount) {
  Dataset d = MakeFeaturedDataset();
  SlimFastModel model(CompileInstance(d, ModelConfig{}).ValueOrDie());
  std::vector<double> weights(model.weights().size());
  for (size_t j = 0; j < weights.size(); ++j) {
    weights[j] = 0.3 * std::sin(static_cast<double>(j) + 1.0);
  }
  model.SetWeights(weights);
  auto split = testutil::MakePrefixSplit(d, 40);
  std::vector<uint8_t> labeled(static_cast<size_t>(d.num_objects()), 0);
  for (ObjectId o : split.train_objects) labeled[static_cast<size_t>(o)] = 1;

  Executor exec(ExecOptions{4});
  const EStepCounts estep =
      EmLearner(EmOptions{}).EStep(model, split.train_objects, &exec);
  SourceClaimCounts recount(d.num_sources());
  std::vector<double> probs;
  for (ObjectId o = 0; o < d.num_objects(); ++o) {
    const ValueId truth = d.Truth(o);
    const bool is_labeled = labeled[static_cast<size_t>(o)] != 0;
    ASSERT_TRUE(model.PosteriorOf(o, &probs) || d.ClaimsOnObject(o).empty());
    const int32_t row = model.instance().RowIndex(o);
    for (const auto& claim : d.ClaimsOnObject(o)) {
      const size_t s = static_cast<size_t>(claim.source);
      recount.mass[s] += 1.0;
      if (is_labeled) {
        recount.correct[s] += claim.value == truth ? 1.0 : 0.0;
        continue;
      }
      const int64_t base =
          model.instance().row_begin[static_cast<size_t>(row)];
      for (int32_t di = 0; di < model.instance().DomainSize(row); ++di) {
        if (model.instance().cand_values[static_cast<size_t>(base + di)] ==
                claim.value &&
            di == model.MapIndex(row)) {
          recount.correct[s] += 1.0;
        }
      }
    }
  }
  for (size_t s = 0; s < recount.mass.size(); ++s) {
    EXPECT_EQ(estep.counts.mass[s], recount.mass[s]) << "source " << s;
    EXPECT_NEAR(estep.counts.correct[s], recount.correct[s], 1e-12)
        << "source " << s;
  }
}

/// Theorem 1/2 shape check: ERM loss decreases as |G| grows.
class ErmSampleSizeSweep : public ::testing::TestWithParam<int32_t> {};

TEST_P(ErmSampleSizeSweep, MoreLabelsNeverMuchWorse) {
  std::vector<double> accuracies(10);
  for (size_t s = 0; s < 10; ++s) accuracies[s] = 0.3 + 0.06 * s;
  Dataset d = testutil::MakePlantedDataset(accuracies, 600, 0.5, 77);
  ModelConfig config;
  config.use_feature_weights = false;
  SlimFastModel model(CompileInstance(d, config).ValueOrDie());
  ErmLearner learner(ErmOptions{});
  Rng rng(GetParam());
  auto split = testutil::MakePrefixSplit(d, GetParam());
  ASSERT_TRUE(learner.Fit(split.train_objects, &model, &rng).ok());
  // Source-accuracy estimation error should be modest once |G| >= 100.
  double error_sum = 0.0;
  for (SourceId s = 0; s < 10; ++s) {
    error_sum += std::fabs(model.SourceAccuracy(s) -
                           d.EmpiricalSourceAccuracy(s).ValueOrDie());
  }
  if (GetParam() >= 100) {
    EXPECT_LT(error_sum / 10.0, 0.15);
  }
}

INSTANTIATE_TEST_SUITE_P(SampleSizes, ErmSampleSizeSweep,
                         ::testing::Values(25, 100, 300, 500));

}  // namespace
}  // namespace slimfast

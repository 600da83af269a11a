#include <cmath>

#include <gtest/gtest.h>

#include "core/copying.h"
#include "core/erm.h"
#include "core/slimfast.h"
#include "core/source_init.h"
#include "eval/metrics.h"
#include "test_util.h"
#include "util/math.h"

namespace slimfast {
namespace {

// ---------- Source quality initialization (Sec. 5.3.2) ----------

Dataset MakeFeatureAccuracyDataset(uint64_t seed, int32_t num_sources,
                                   int32_t num_objects) {
  DatasetBuilder builder("srcinit", num_sources, num_objects, 2);
  FeatureSpace* fs = builder.mutable_features();
  FeatureId hi = fs->RegisterFeature("quality=high");
  FeatureId lo = fs->RegisterFeature("quality=low");
  Rng rng(seed);
  std::vector<double> accuracy(num_sources);
  for (SourceId s = 0; s < num_sources; ++s) {
    bool good = s % 2 == 0;
    SLIMFAST_CHECK_OK(fs->SetFeature(s, good ? hi : lo));
    accuracy[static_cast<size_t>(s)] = good ? 0.88 : 0.35;
  }
  for (ObjectId o = 0; o < num_objects; ++o) {
    for (SourceId s = 0; s < num_sources; ++s) {
      SLIMFAST_CHECK_OK(builder.AddObservation(
          o, s, rng.Bernoulli(accuracy[static_cast<size_t>(s)]) ? 0 : 1));
    }
    SLIMFAST_CHECK_OK(builder.SetTruth(o, 0));
  }
  return std::move(builder).Build().ValueOrDie();
}

TEST(SourceInitTest, RequiresFeatureWeights) {
  Dataset d = testutil::MakeFigure1Dataset();
  ModelConfig config;
  config.use_feature_weights = false;
  SlimFastModel model(CompileInstance(d, config).ValueOrDie());
  EXPECT_TRUE(SourceQualityPredictor::FromModel(model)
                  .status()
                  .IsFailedPrecondition());
}

TEST(SourceInitTest, PredictsUnseenSourceAccuracyFromFeatures) {
  Dataset d = MakeFeatureAccuracyDataset(31, 20, 300);
  SlimFastModel model(CompileInstance(d, ModelConfig{}).ValueOrDie());
  ErmLearner learner(ErmOptions{});
  Rng rng(1);
  auto split = testutil::MakePrefixSplit(d, 200);
  ASSERT_TRUE(learner.Fit(d, split.train_objects, &model, &rng).ok());

  auto predictor = SourceQualityPredictor::FromModel(model).ValueOrDie();
  // An unseen "high quality" source should be predicted clearly above an
  // unseen "low quality" source.
  FeatureId hi = d.features().FindFeature("quality=high").ValueOrDie();
  FeatureId lo = d.features().FindFeature("quality=low").ValueOrDie();
  double a_hi = predictor.PredictAccuracy({hi});
  double a_lo = predictor.PredictAccuracy({lo});
  EXPECT_GT(a_hi, 0.6);
  EXPECT_LT(a_lo, 0.5);
  EXPECT_GT(a_hi - a_lo, 0.25);
}

TEST(SourceInitTest, PredictAccuracyOfUsesDatasetFeatures) {
  Dataset d = MakeFeatureAccuracyDataset(37, 10, 200);
  SlimFastModel model(CompileInstance(d, ModelConfig{}).ValueOrDie());
  ErmLearner learner(ErmOptions{});
  Rng rng(2);
  auto split = testutil::MakePrefixSplit(d, 150);
  ASSERT_TRUE(learner.Fit(d, split.train_objects, &model, &rng).ok());
  auto predictor = SourceQualityPredictor::FromModel(model).ValueOrDie();
  // Source 0 is "high", source 1 is "low".
  EXPECT_GT(predictor.PredictAccuracyOf(d, 0),
            predictor.PredictAccuracyOf(d, 1));
}

TEST(SourceInitTest, IgnoresOutOfRangeFeatures) {
  Dataset d = MakeFeatureAccuracyDataset(41, 10, 100);
  SlimFastModel model(CompileInstance(d, ModelConfig{}).ValueOrDie());
  auto predictor = SourceQualityPredictor::FromModel(model).ValueOrDie();
  // Unknown feature ids contribute nothing rather than crashing.
  double base = predictor.PredictAccuracy({});
  EXPECT_DOUBLE_EQ(predictor.PredictAccuracy({999}), base);
}

// ---------- Copying extension (Appendix D) ----------

/// Two copying sources echo a moderately-bad leader; several independent
/// honest sources exist. Without copy features the duplicated wrong claims
/// can outvote; with copy features SLiMFast should discount them.
Dataset MakeCopyHeavyDataset(uint64_t seed) {
  const int32_t kSources = 7;  // 0 = leader, 1-2 copiers, 3-6 honest
  const int32_t kObjects = 400;
  Rng rng(seed);
  DatasetBuilder builder("copyheavy", kSources, kObjects, 2);
  for (ObjectId o = 0; o < kObjects; ++o) {
    ValueId leader_value = rng.Bernoulli(0.45) ? 0 : 1;  // accuracy 0.45
    SLIMFAST_CHECK_OK(builder.AddObservation(o, 0, leader_value));
    SLIMFAST_CHECK_OK(builder.AddObservation(o, 1, leader_value));
    SLIMFAST_CHECK_OK(builder.AddObservation(o, 2, leader_value));
    for (SourceId s = 3; s < kSources; ++s) {
      SLIMFAST_CHECK_OK(
          builder.AddObservation(o, s, rng.Bernoulli(0.75) ? 0 : 1));
    }
    SLIMFAST_CHECK_OK(builder.SetTruth(o, 0));
  }
  return std::move(builder).Build().ValueOrDie();
}

TEST(CopyingTest, TopRelationsIdentifyCopiers) {
  Dataset d = MakeCopyHeavyDataset(51);
  ModelConfig config;
  config.use_feature_weights = false;
  config.use_copying_features = true;
  config.copying_min_agreements = 30;
  SlimFastModel model(CompileInstance(d, config).ValueOrDie());
  ASSERT_GE(model.layout().num_copy_params, 1);

  ErmOptions erm;
  erm.epochs = 80;
  ErmLearner learner(erm);
  Rng rng(3);
  auto split = testutil::MakePrefixSplit(d, 200);
  ASSERT_TRUE(learner.Fit(d, split.train_objects, &model, &rng).ok());

  auto relations = TopCopyingRelations(model, 3);
  ASSERT_FALSE(relations.empty());
  // The strongest copying relations must be among the leader/copier pairs
  // {0,1,2}.
  const CopyingRelation& top = relations[0];
  EXPECT_LT(top.source_a, 3);
  EXPECT_LT(top.source_b, 3);
  EXPECT_GT(top.weight, 0.0);
}

TEST(CopyingTest, CopyModelAtLeastMatchesPlainErm) {
  Dataset d = MakeCopyHeavyDataset(53);
  auto split = testutil::MakePrefixSplit(d, 40);
  Rng rng1(4), rng2(4);

  ModelConfig plain;
  plain.use_feature_weights = false;
  SlimFastModel plain_model(CompileInstance(d, plain).ValueOrDie());
  ErmLearner learner{ErmOptions{}};
  ASSERT_TRUE(
      learner.Fit(d, split.train_objects, &plain_model, &rng1).ok());

  ModelConfig copying = plain;
  copying.use_copying_features = true;
  copying.copying_min_agreements = 30;
  SlimFastModel copy_model(CompileInstance(d, copying).ValueOrDie());
  ASSERT_TRUE(
      learner.Fit(d, split.train_objects, &copy_model, &rng2).ok());

  double plain_acc =
      ObjectValueAccuracy(d, plain_model.PredictAll(), split.test_objects)
          .ValueOrDie();
  double copy_acc =
      ObjectValueAccuracy(d, copy_model.PredictAll(), split.test_objects)
          .ValueOrDie();
  EXPECT_GE(copy_acc, plain_acc - 0.03);
}

TEST(CopyingTest, RelationsToStringRendersRows) {
  std::vector<CopyingRelation> relations = {{1, 2, 2.44}, {3, 4, 0.69}};
  std::string s = CopyingRelationsToString(relations);
  EXPECT_NE(s.find("copying weight"), std::string::npos);
  EXPECT_NE(s.find("2.4400"), std::string::npos);
}

TEST(CopyingTest, NoCopyParamsGivesEmptyRelations) {
  Dataset d = testutil::MakeFigure1Dataset();
  SlimFastModel model(CompileInstance(d, ModelConfig{}).ValueOrDie());
  EXPECT_TRUE(TopCopyingRelations(model, 10).empty());
}

// ---------- SlimFast facade presets ----------

TEST(SlimFastFacadeTest, PresetNamesMatchPaper) {
  EXPECT_EQ(MakeSlimFast()->name(), "SLiMFast");
  EXPECT_EQ(MakeSlimFastErm()->name(), "SLiMFast-ERM");
  EXPECT_EQ(MakeSlimFastEm()->name(), "SLiMFast-EM");
  EXPECT_EQ(MakeSourcesErm()->name(), "Sources-ERM");
  EXPECT_EQ(MakeSourcesEm()->name(), "Sources-EM");
}

TEST(SlimFastFacadeTest, RunProducesFullOutput) {
  Dataset d = MakeFeatureAccuracyDataset(71, 12, 150);
  auto split = testutil::MakePrefixSplit(d, 30);
  auto method = MakeSlimFast();
  auto output = method->Run(d, split, 17).ValueOrDie();
  EXPECT_EQ(output.method_name, "SLiMFast");
  EXPECT_EQ(output.predicted_values.size(),
            static_cast<size_t>(d.num_objects()));
  EXPECT_EQ(output.source_accuracies.size(),
            static_cast<size_t>(d.num_sources()));
  EXPECT_FALSE(output.detail.empty());
  EXPECT_GE(output.learn_seconds, 0.0);
}

TEST(SlimFastFacadeTest, ErmPresetFallsBackToEmWithoutLabels) {
  Dataset d = MakeFeatureAccuracyDataset(79, 10, 100);
  auto split = testutil::MakePrefixSplit(d, 0);  // no training labels
  auto method = MakeSlimFastErm();
  auto output = method->Run(d, split, 5);
  ASSERT_TRUE(output.ok()) << output.status();
  EXPECT_EQ(output->predicted_values.size(),
            static_cast<size_t>(d.num_objects()));
}

}  // namespace
}  // namespace slimfast

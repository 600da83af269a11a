#include <gtest/gtest.h>

#include "core/compiled_instance.h"
#include "test_util.h"

namespace slimfast {
namespace {

using testutil::CandidateTerms;
using testutil::RowDomain;
using testutil::SigmaTerms;
using testutil::Term;

Dataset MakeFeatureDataset() {
  DatasetBuilder builder("feat", 3, 2, 2);
  FeatureSpace* fs = builder.mutable_features();
  FeatureId k0 = fs->RegisterFeature("k0");
  FeatureId k1 = fs->RegisterFeature("k1");
  SLIMFAST_CHECK_OK(fs->SetFeature(0, k0));
  SLIMFAST_CHECK_OK(fs->SetFeature(0, k1));
  SLIMFAST_CHECK_OK(fs->SetFeature(1, k1));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 1, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 2, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 1, 0));
  SLIMFAST_CHECK_OK(builder.SetTruth(0, 1));
  return std::move(builder).Build().ValueOrDie();
}

TEST(CompilationTest, LayoutDefaultConfig) {
  Dataset d = MakeFeatureDataset();
  auto instance = CompileInstance(d, ModelConfig{}).ValueOrDie();
  const CompiledModel& model = *instance->model;
  EXPECT_EQ(model.layout.num_source_params, 3);
  EXPECT_EQ(model.layout.num_feature_params, 2);
  EXPECT_EQ(model.layout.num_copy_params, 0);
  EXPECT_EQ(model.layout.num_params, 5);
  EXPECT_EQ(model.layout.source_offset, 0);
  EXPECT_EQ(model.layout.feature_offset, 3);
}

TEST(CompilationTest, LayoutPredicates) {
  Dataset d = MakeFeatureDataset();
  auto instance = CompileInstance(d, ModelConfig{}).ValueOrDie();
  const CompiledModel& model = *instance->model;
  EXPECT_TRUE(model.layout.IsSourceParam(0));
  EXPECT_TRUE(model.layout.IsSourceParam(2));
  EXPECT_FALSE(model.layout.IsSourceParam(3));
  EXPECT_TRUE(model.layout.IsFeatureParam(3));
  EXPECT_TRUE(model.layout.IsFeatureParam(4));
  EXPECT_FALSE(model.layout.IsFeatureParam(2));
  EXPECT_FALSE(model.layout.IsCopyParam(4));
}

TEST(CompilationTest, SigmaTermsContainSourceAndFeatures) {
  Dataset d = MakeFeatureDataset();
  auto instance = CompileInstance(d, ModelConfig{}).ValueOrDie();
  // Source 0: own weight + features k0, k1.
  EXPECT_EQ(SigmaTerms(*instance, 0),
            (std::vector<Term>{{0, 1.0}, {3, 1.0}, {4, 1.0}}));
  // Source 2: no features.
  EXPECT_EQ(SigmaTerms(*instance, 2), (std::vector<Term>{{2, 1.0}}));
  EXPECT_EQ(instance->sigma_begin.size(), 4u);
}

TEST(CompilationTest, SourcesOnlyConfig) {
  Dataset d = MakeFeatureDataset();
  ModelConfig config;
  config.use_feature_weights = false;
  auto instance = CompileInstance(d, config).ValueOrDie();
  const CompiledModel& model = *instance->model;
  EXPECT_EQ(model.layout.num_params, 3);
  EXPECT_EQ(model.layout.num_feature_params, 0);
  for (SourceId s = 0; s < 3; ++s) {
    EXPECT_EQ(SigmaTerms(*instance, s), (std::vector<Term>{{s, 1.0}}));
  }
}

TEST(CompilationTest, FeatureOnlyConfig) {
  Dataset d = MakeFeatureDataset();
  ModelConfig config;
  config.use_source_weights = false;
  auto instance = CompileInstance(d, config).ValueOrDie();
  const CompiledModel& model = *instance->model;
  EXPECT_EQ(model.layout.num_params, 2);
  // Source 2 has no features, so its sigma expression is empty (score 0).
  EXPECT_TRUE(SigmaTerms(*instance, 2).empty());
  // Source 0's features k0, k1 sit at parameters 0 and 1.
  EXPECT_EQ(SigmaTerms(*instance, 0),
            (std::vector<Term>{{0, 1.0}, {1, 1.0}}));
}

TEST(CompilationTest, RejectsNoParameterGroups) {
  Dataset d = MakeFeatureDataset();
  ModelConfig config;
  config.use_source_weights = false;
  config.use_feature_weights = false;
  EXPECT_TRUE(CompileInstance(d, config).status().IsInvalidArgument());
}

TEST(CompilationTest, RejectsFeatureOnlyWithoutFeatures) {
  Dataset d = testutil::MakeFigure1Dataset();  // no features
  ModelConfig config;
  config.use_source_weights = false;
  EXPECT_TRUE(CompileInstance(d, config).status().IsFailedPrecondition());
}

TEST(CompilationTest, ObjectTermsAggregateClaimingSigmas) {
  Dataset d = MakeFeatureDataset();
  auto instance = CompileInstance(d, ModelConfig{}).ValueOrDie();
  ASSERT_EQ(RowDomain(*instance, 0), (std::vector<ValueId>{0, 1}));
  // Value 0 claimed only by source 2: term = {w_s2: 1}.
  EXPECT_EQ(CandidateTerms(*instance, 0, 0), (std::vector<Term>{{2, 1.0}}));
  // Value 1 claimed by sources 0 and 1: w_s0 + w_s1 + k0 + 2*k1 (k0 from
  // source 0, k1 from sources 0 and 1).
  EXPECT_EQ(CandidateTerms(*instance, 0, 1),
            (std::vector<Term>{{0, 1.0}, {1, 1.0}, {3, 1.0}, {4, 2.0}}));
  // Binary domain: no multiclass offsets.
  EXPECT_EQ(testutil::RowOffsets(*instance, 0),
            (std::vector<double>{0.0, 0.0}));
}

TEST(CompilationTest, UnobservedObjectsHaveNoRow) {
  DatasetBuilder builder("gap", 2, 3, 2);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(2, 1, 0));
  Dataset d = std::move(builder).Build().ValueOrDie();
  auto instance = CompileInstance(d, ModelConfig{}).ValueOrDie();
  EXPECT_EQ(instance->RowIndex(0), 0);
  EXPECT_EQ(instance->RowIndex(1), -1);
  EXPECT_EQ(instance->RowIndex(2), 1);
  EXPECT_EQ(instance->RowIndex(3), -1);  // out of range
  EXPECT_EQ(instance->num_rows(), 2);
  EXPECT_EQ(instance->row_object, (std::vector<ObjectId>{0, 2}));
  EXPECT_EQ(instance->object_row, (std::vector<int32_t>{0, -1, 1}));
}

TEST(CompilationTest, DomainIndexLookup) {
  Dataset d = MakeFeatureDataset();
  auto instance = CompileInstance(d, ModelConfig{}).ValueOrDie();
  const int32_t row = instance->RowIndex(0);
  EXPECT_EQ(instance->DomainIndex(row, 0), 0);
  EXPECT_EQ(instance->DomainIndex(row, 1), 1);
  EXPECT_EQ(instance->DomainIndex(row, 7), -1);
}

Dataset MakeCopyingDataset() {
  // Sources 0 and 1 agree on the wrong value for three objects; source 2
  // is independent.
  DatasetBuilder builder("copy", 3, 4, 2);
  for (ObjectId o = 0; o < 3; ++o) {
    SLIMFAST_CHECK_OK(builder.AddObservation(o, 0, 1));
    SLIMFAST_CHECK_OK(builder.AddObservation(o, 1, 1));
    SLIMFAST_CHECK_OK(builder.AddObservation(o, 2, 0));
    SLIMFAST_CHECK_OK(builder.SetTruth(o, 0));
  }
  SLIMFAST_CHECK_OK(builder.AddObservation(3, 0, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(3, 2, 0));
  SLIMFAST_CHECK_OK(builder.SetTruth(3, 0));
  return std::move(builder).Build().ValueOrDie();
}

TEST(CompilationTest, CopyingPairsRegisteredByAgreementCount) {
  Dataset d = MakeCopyingDataset();
  ModelConfig config;
  config.use_copying_features = true;
  config.copying_min_agreements = 2;
  auto instance = CompileInstance(d, config).ValueOrDie();
  const CompiledModel& model = *instance->model;
  // Agreements: (0,1) on objects 0-2 = 3 times; (0,2) only on object 3 =
  // once; (1,2) never. With min_agreements = 2 only (0,1) qualifies.
  ASSERT_EQ(model.copy_pairs.size(), 1u);
  EXPECT_EQ(model.copy_pairs[0], (std::pair<SourceId, SourceId>(0, 1)));
}

TEST(CompilationTest, CopyingMaxPairsCap) {
  Dataset d = MakeCopyingDataset();
  ModelConfig config;
  config.use_copying_features = true;
  config.copying_min_agreements = 1;
  config.copying_max_pairs = 1;
  auto instance = CompileInstance(d, config).ValueOrDie();
  const CompiledModel& model = *instance->model;
  ASSERT_EQ(model.copy_pairs.size(), 1u);
  // Highest-agreement pair wins the cap.
  EXPECT_EQ(model.copy_pairs[0], (std::pair<SourceId, SourceId>(0, 1)));
}

TEST(CompilationTest, CopyingTermsPenalizeAgreedValue) {
  Dataset d = MakeCopyingDataset();
  ModelConfig config;
  config.use_copying_features = true;
  config.copying_min_agreements = 2;
  auto instance = CompileInstance(d, config).ValueOrDie();
  const CompiledModel& model = *instance->model;
  ASSERT_GE(model.layout.num_copy_params, 1);
  ParamId copy_param = model.layout.copy_offset;
  // On object 0 the pair (0,1) agreed on value 1, so the copy parameter
  // appears on candidate 0 (the value they did NOT claim).
  bool on_candidate0 = false;
  bool on_candidate1 = false;
  for (const Term& t : CandidateTerms(*instance, 0, 0)) {
    if (t.first == copy_param) on_candidate0 = true;
  }
  for (const Term& t : CandidateTerms(*instance, 0, 1)) {
    if (t.first == copy_param) on_candidate1 = true;
  }
  EXPECT_TRUE(on_candidate0);
  EXPECT_FALSE(on_candidate1);
}

TEST(CompilationTest, CopyingRequiresTwoSources) {
  DatasetBuilder builder("solo", 1, 1, 2);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 0));
  Dataset d = std::move(builder).Build().ValueOrDie();
  ModelConfig config;
  config.use_copying_features = true;
  EXPECT_TRUE(CompileInstance(d, config).status().IsFailedPrecondition());
}

}  // namespace
}  // namespace slimfast

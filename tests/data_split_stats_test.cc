#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "data/split.h"
#include "data/stats.h"

namespace slimfast {
namespace {

Dataset MakeLabeledDataset(int32_t num_objects, int32_t claims_per_object) {
  DatasetBuilder builder("labeled", /*num_sources=*/claims_per_object,
                         num_objects, /*num_values=*/2);
  for (ObjectId o = 0; o < num_objects; ++o) {
    for (SourceId s = 0; s < claims_per_object; ++s) {
      SLIMFAST_CHECK_OK(builder.AddObservation(o, s, o % 2));
    }
    SLIMFAST_CHECK_OK(builder.SetTruth(o, o % 2));
  }
  return std::move(builder).Build().ValueOrDie();
}

TEST(SplitTest, PartitionsLabeledObjects) {
  Dataset d = MakeLabeledDataset(100, 3);
  Rng rng(1);
  auto split = MakeSplit(d, 0.2, &rng).ValueOrDie();
  EXPECT_EQ(split.train_objects.size(), 20u);
  EXPECT_EQ(split.test_objects.size(), 80u);

  std::set<ObjectId> train(split.train_objects.begin(),
                           split.train_objects.end());
  for (ObjectId o : split.test_objects) {
    EXPECT_EQ(train.count(o), 0u);
  }
  for (ObjectId o : split.train_objects) EXPECT_TRUE(split.IsTrain(o));
  for (ObjectId o : split.test_objects) EXPECT_FALSE(split.IsTrain(o));
}

TEST(SplitTest, TinyFractionGetsAtLeastOneTrainObject) {
  Dataset d = MakeLabeledDataset(100, 2);
  Rng rng(2);
  auto split = MakeSplit(d, 0.001, &rng).ValueOrDie();
  EXPECT_EQ(split.train_objects.size(), 1u);
  EXPECT_EQ(split.test_objects.size(), 99u);
}

TEST(SplitTest, NearFullFractionKeepsOneTestObject) {
  Dataset d = MakeLabeledDataset(10, 2);
  Rng rng(3);
  // Rounding 0.99 * 10 would give 10 training objects; the split keeps one
  // object out for evaluation whenever the fraction is below 1.
  auto split = MakeSplit(d, 0.99, &rng).ValueOrDie();
  EXPECT_EQ(split.train_objects.size(), 9u);
  EXPECT_EQ(split.test_objects.size(), 1u);
  // At exactly 1.0 everything is training data.
  auto full = MakeSplit(d, 1.0, &rng).ValueOrDie();
  EXPECT_EQ(full.train_objects.size(), 10u);
  EXPECT_TRUE(full.test_objects.empty());
}

TEST(SplitTest, ZeroFractionIsAllTest) {
  Dataset d = MakeLabeledDataset(10, 2);
  Rng rng(4);
  auto split = MakeSplit(d, 0.0, &rng).ValueOrDie();
  EXPECT_TRUE(split.train_objects.empty());
  EXPECT_EQ(split.test_objects.size(), 10u);
}

TEST(SplitTest, InvalidFractionRejected) {
  Dataset d = MakeLabeledDataset(10, 2);
  Rng rng(5);
  EXPECT_TRUE(MakeSplit(d, -0.1, &rng).status().IsInvalidArgument());
  EXPECT_TRUE(MakeSplit(d, 1.1, &rng).status().IsInvalidArgument());
}

TEST(SplitTest, UnlabeledDatasetRejected) {
  DatasetBuilder builder("u", 1, 1, 2);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 0));
  Dataset d = std::move(builder).Build().ValueOrDie();
  Rng rng(6);
  EXPECT_TRUE(MakeSplit(d, 0.5, &rng).status().IsFailedPrecondition());
}

TEST(SplitTest, OnlyLabeledObjectsAreSplit) {
  DatasetBuilder builder("partial", 2, 4, 2);
  for (ObjectId o = 0; o < 4; ++o) {
    SLIMFAST_CHECK_OK(builder.AddObservation(o, 0, 0));
  }
  SLIMFAST_CHECK_OK(builder.SetTruth(0, 0));
  SLIMFAST_CHECK_OK(builder.SetTruth(2, 0));
  Dataset d = std::move(builder).Build().ValueOrDie();
  Rng rng(7);
  auto split = MakeSplit(d, 0.5, &rng).ValueOrDie();
  EXPECT_EQ(split.train_objects.size() + split.test_objects.size(), 2u);
  for (ObjectId o : split.train_objects) EXPECT_TRUE(o == 0 || o == 2);
  for (ObjectId o : split.test_objects) EXPECT_TRUE(o == 0 || o == 2);
}

TEST(SplitTest, DifferentSeedsGiveDifferentSplits) {
  Dataset d = MakeLabeledDataset(200, 2);
  Rng rng_a(10);
  Rng rng_b(11);
  auto a = MakeSplit(d, 0.5, &rng_a).ValueOrDie();
  auto b = MakeSplit(d, 0.5, &rng_b).ValueOrDie();
  EXPECT_NE(a.train_objects, b.train_objects);
}

TEST(StatsTest, ComputesBasicCounts) {
  Dataset d = MakeLabeledDataset(50, 4);
  DatasetStats stats = ComputeStats(d);
  EXPECT_EQ(stats.num_sources, 4);
  EXPECT_EQ(stats.num_objects, 50);
  EXPECT_EQ(stats.num_observations, 200);
  EXPECT_DOUBLE_EQ(stats.density, 1.0);
  EXPECT_DOUBLE_EQ(stats.avg_obs_per_object, 4.0);
  EXPECT_DOUBLE_EQ(stats.avg_obs_per_source, 50.0);
  EXPECT_DOUBLE_EQ(stats.truth_coverage, 1.0);
  // All claims equal the truth in MakeLabeledDataset.
  EXPECT_DOUBLE_EQ(stats.avg_source_accuracy, 1.0);
  EXPECT_TRUE(stats.avg_source_accuracy_reliable);
  EXPECT_DOUBLE_EQ(stats.avg_domain_size, 1.0);
}

TEST(StatsTest, DensityForSparseDataset) {
  DatasetBuilder builder("sparse", 10, 10, 2);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(5, 3, 1));
  Dataset d = std::move(builder).Build().ValueOrDie();
  DatasetStats stats = ComputeStats(d);
  EXPECT_DOUBLE_EQ(stats.density, 2.0 / 100.0);
  EXPECT_DOUBLE_EQ(stats.truth_coverage, 0.0);
}

TEST(StatsTest, UnreliableAccuracyFlaggedLikeGenomics) {
  // ~1 observation per source: accuracy column should be flagged, mirroring
  // Table 1's "-" for Genomics.
  DatasetBuilder builder("one-shot", 20, 20, 2);
  for (int i = 0; i < 20; ++i) {
    SLIMFAST_CHECK_OK(builder.AddObservation(i, i, 0));
    SLIMFAST_CHECK_OK(builder.SetTruth(i, 0));
  }
  Dataset d = std::move(builder).Build().ValueOrDie();
  DatasetStats stats = ComputeStats(d);
  EXPECT_FALSE(stats.avg_source_accuracy_reliable);
  EXPECT_NE(stats.ToString().find("unreliable"), std::string::npos);
}

TEST(StatsTest, ToStringContainsHeadlineNumbers) {
  Dataset d = MakeLabeledDataset(5, 2);
  std::string s = ComputeStats(d).ToString();
  EXPECT_NE(s.find("labeled"), 0u);  // non-empty rendering
  EXPECT_NE(s.find("# Sources:"), std::string::npos);
  EXPECT_NE(s.find("# Observations:"), std::string::npos);
}

}  // namespace
}  // namespace slimfast

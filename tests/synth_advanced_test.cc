// Tests for the generator's structural extensions: syndication
// co-observation, per-cluster accuracy, and object difficulty.

#include <cmath>

#include <gtest/gtest.h>

#include "agreement_matrix.h"
#include "synth/synthetic.h"
#include "util/math.h"

namespace slimfast {
namespace {

SyntheticConfig ClusteredConfig() {
  SyntheticConfig config;
  config.num_sources = 40;
  config.num_objects = 800;
  config.density = 0.05;
  config.mean_accuracy = 0.7;
  config.accuracy_spread = 0.05;
  config.num_copy_clusters = 4;
  config.copy_cluster_size = 3;
  config.copy_fidelity = 1.0;
  return config;
}

TEST(CoObservationTest, PiggybackRaisesClusterOverlap) {
  SyntheticConfig with = ClusteredConfig();
  with.copy_coobserve = 0.9;
  SyntheticConfig without = ClusteredConfig();
  without.copy_coobserve = 0.0;

  auto synth_with = GenerateSynthetic(with, 21).ValueOrDie();
  auto synth_without = GenerateSynthetic(without, 21).ValueOrDie();

  auto cluster_overlap = [](const SyntheticDataset& synth) {
    AgreementMatrix m(ObservationStore::FromDataset(synth.dataset));
    int64_t total = 0;
    // Leader 0 with copiers 1, 2 (cluster 0).
    total += m.OverlapCount(0, 1);
    total += m.OverlapCount(0, 2);
    return total;
  };
  EXPECT_GT(cluster_overlap(synth_with), 4 * cluster_overlap(synth_without));
}

TEST(CoObservationTest, IndependentSourcesUnaffected) {
  SyntheticConfig config = ClusteredConfig();
  config.copy_coobserve = 0.9;
  auto synth = GenerateSynthetic(config, 23).ValueOrDie();
  // Independent sources (outside the 12 clustered ones) keep ~density
  // observation rates.
  for (SourceId s = 12; s < 40; ++s) {
    double rate =
        static_cast<double>(synth.dataset.ClaimsBySource(s).size()) / 800.0;
    EXPECT_NEAR(rate, 0.05, 0.03) << "source " << s;
  }
}

TEST(CoObservationTest, ValidatesRange) {
  SyntheticConfig config = ClusteredConfig();
  config.copy_coobserve = 1.5;
  EXPECT_TRUE(GenerateSynthetic(config, 1).status().IsInvalidArgument());
}

TEST(ClusterAccuracyTest, OverridesClusterMembers) {
  SyntheticConfig config = ClusteredConfig();
  config.copy_cluster_accuracy = 0.4;
  config.accuracy_spread = 0.02;
  auto synth = GenerateSynthetic(config, 25).ValueOrDie();
  // First 12 sources are clustered at ~0.4; the rest at ~0.7.
  for (SourceId s = 0; s < 12; ++s) {
    EXPECT_NEAR(synth.true_accuracies[static_cast<size_t>(s)], 0.4, 0.05);
  }
  for (SourceId s = 12; s < 40; ++s) {
    EXPECT_NEAR(synth.true_accuracies[static_cast<size_t>(s)], 0.7, 0.05);
  }
}

TEST(ClusterAccuracyTest, DisabledByDefault) {
  SyntheticConfig config = ClusteredConfig();
  auto synth = GenerateSynthetic(config, 27).ValueOrDie();
  for (SourceId s = 0; s < 40; ++s) {
    EXPECT_NEAR(synth.true_accuracies[static_cast<size_t>(s)], 0.7, 0.1);
  }
}

TEST(DifficultyTest, RaisesAgreementWithoutRaisingAccuracy) {
  SyntheticConfig flat;
  flat.num_sources = 40;
  flat.num_objects = 1500;
  flat.density = 0.3;
  flat.mean_accuracy = 0.55;
  flat.accuracy_spread = 0.0;
  flat.ensure_truth_claimed = false;
  SyntheticConfig bumpy = flat;
  bumpy.object_difficulty = 0.3;

  auto synth_flat = GenerateSynthetic(flat, 31).ValueOrDie();
  auto synth_bumpy = GenerateSynthetic(bumpy, 31).ValueOrDie();

  // Mean empirical accuracy barely moves...
  auto mean_acc = [](const Dataset& d) {
    double sum = 0.0;
    int64_t n = 0;
    for (SourceId s = 0; s < d.num_sources(); ++s) {
      auto a = d.EmpiricalSourceAccuracy(s);
      if (a.ok()) {
        sum += a.ValueOrDie();
        ++n;
      }
    }
    return sum / static_cast<double>(n);
  };
  EXPECT_NEAR(mean_acc(synth_flat.dataset), mean_acc(synth_bumpy.dataset),
              0.03);

  // ...but cross-source agreement rises (easy objects are consensual).
  AgreementMatrix m_flat(ObservationStore::FromDataset(synth_flat.dataset));
  AgreementMatrix m_bumpy(ObservationStore::FromDataset(synth_bumpy.dataset));
  EXPECT_GT(m_bumpy.MeanAgreementRate(),
            m_flat.MeanAgreementRate() + 0.01);
}

TEST(DifficultyTest, ValidatesRange) {
  SyntheticConfig config;
  config.object_difficulty = -0.1;
  EXPECT_TRUE(GenerateSynthetic(config, 1).status().IsInvalidArgument());
}

TEST(DifficultyTest, ZeroDifficultyIsDeterministicNoop) {
  SyntheticConfig a;
  a.num_sources = 10;
  a.num_objects = 50;
  a.density = 0.5;
  a.object_difficulty = 0.0;
  auto synth = GenerateSynthetic(a, 33).ValueOrDie();
  auto again = GenerateSynthetic(a, 33).ValueOrDie();
  EXPECT_EQ(synth.dataset.observations(), again.dataset.observations());
}

/// Property sweep over generator knobs: all configurations produce valid,
/// reproducible datasets with claims consistent with single-truth
/// semantics.
class GeneratorSweep
    : public ::testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(GeneratorSweep, ProducesValidDataset) {
  auto [num_values, density, difficulty] = GetParam();
  SyntheticConfig config;
  config.num_sources = 30;
  config.num_objects = 120;
  config.num_values = num_values;
  config.density = density;
  config.object_difficulty = difficulty;
  config.num_feature_groups = 2;
  config.values_per_group = 3;
  config.feature_effect = 0.1;
  auto synth = GenerateSynthetic(config, 77).ValueOrDie();
  const Dataset& d = synth.dataset;
  EXPECT_EQ(d.num_sources(), 30);
  EXPECT_EQ(d.num_objects(), 120);
  for (const Observation& obs : d.observations()) {
    EXPECT_GE(obs.value, 0);
    EXPECT_LT(obs.value, num_values);
  }
  for (ObjectId o = 0; o < d.num_objects(); ++o) {
    EXPECT_TRUE(d.HasTruth(o));
    const auto& claims = d.ClaimsOnObject(o);
    if (claims.empty()) continue;
    bool truth_claimed = false;
    for (const auto& claim : claims) {
      if (claim.value == d.Truth(o)) truth_claimed = true;
    }
    EXPECT_TRUE(truth_claimed) << "object " << o;
  }
  // Reproducible.
  auto again = GenerateSynthetic(config, 77).ValueOrDie();
  EXPECT_EQ(again.dataset.observations(), d.observations());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GeneratorSweep,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(0.05, 0.3, 0.9),
                       ::testing::Values(0.0, 0.25)));

}  // namespace
}  // namespace slimfast

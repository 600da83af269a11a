// Property-based invariant harness: ~200 seed-derived random universes
// (testutil::RandomUniverse) sweep dimensions, sparsity, domain sizes,
// labeled fraction, and the degenerate shapes (0-claim objects,
// single-source instances) through the four compilation/execution
// equivalences the engine promises:
//
//   1. full compile == chunked delta-compile, bitwise (BitwiseEqual);
//   2. 1 thread == 4 threads, bit-identical FusionOutput;
//   3. SIMD wide tables == scalar tables, bit-identical FusionOutput;
//   4. ObservationStore::AppendBatch fingerprint == rebuild-from-scratch
//      fingerprint (and the stores' columns agree).
//
// The fixed-instance determinism_test pins these on hand-picked presets;
// this harness is the fuzzer that keeps them true on shapes nobody
// hand-picked. Each invariant gets its own TEST so a failure names the
// property, and every assertion carries the universe seed so a failure
// reproduces with RandomUniverse(seed).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/compiled_instance.h"
#include "core/slimfast.h"
#include "data/observation_store.h"
#include "simd/simd.h"
#include "test_util.h"

namespace slimfast {
namespace {

using testutil::AllSlimFastPresets;
using testutil::MakePrefixSplit;
using testutil::RandomUniverse;

// 200 universes split across the run-based and structure-based sweeps so
// the whole binary stays well under the 60 s budget: structure checks
// (compile, fingerprint) are cheap and take the full range; run-based
// checks (full fits at two thread counts, two kernel tables) rotate
// through the presets so every preset sees dozens of distinct universes.
constexpr uint64_t kNumUniverses = 200;

// Reveals half of the labeled objects (always at least one — universe
// object 0 is labeled by construction) for the semi-supervised presets.
TrainTestSplit UniverseSplit(const Dataset& dataset) {
  const int32_t labeled =
      static_cast<int32_t>(dataset.ObjectsWithTruth().size());
  return MakePrefixSplit(dataset, (labeled + 1) / 2);
}

// Small iteration counts: the invariants compare bits between two runs of
// the SAME configuration, so convergence quality is irrelevant — only
// that both runs execute the identical numeric path.
SlimFastOptions FastOptions() {
  SlimFastOptions options;
  options.em.max_iterations = 8;
  options.erm.epochs = 12;
  return options;
}

/// Invariant 1: compiling the whole universe at once and replaying it as
/// a chain of delta batches produce bitwise-equal CompiledInstances.
TEST(PropertyTest, CompileEqualsDeltaCompileBitwise) {
  for (uint64_t seed = 0; seed < kNumUniverses; ++seed) {
    Dataset dataset = RandomUniverse(seed);
    ModelConfig config;
    auto full = CompileInstance(dataset, config).ValueOrDie();
    // Empty start + all claims replayed in chunks (1 chunk on the
    // smallest universes, 3 otherwise, so chunk boundaries move with
    // the seed).
    DatasetBuilder empty("universe-empty", dataset.num_sources(),
                         dataset.num_objects(), dataset.num_values());
    Dataset empty_dataset = std::move(empty).Build().ValueOrDie();
    auto instance = CompileInstance(empty_dataset, config).ValueOrDie();
    const int32_t chunks = dataset.num_observations() < 4 ? 1 : 3;
    for (const ObservationBatch& chunk :
         ChunkDatasetForReplay(dataset, chunks)) {
      instance = DeltaCompile(*instance, chunk).ValueOrDie();
    }
    EXPECT_TRUE(BitwiseEqual(*instance, *full)) << "seed=" << seed;
  }
}

/// Invariant 4: growing a store through AppendBatch produces the same
/// incremental content fingerprint — and the same columns — as a store
/// rebuilt from scratch over the full universe.
TEST(PropertyTest, AppendBatchFingerprintEqualsRebuild) {
  for (uint64_t seed = 0; seed < kNumUniverses; ++seed) {
    Dataset dataset = RandomUniverse(seed);
    ObservationStore rebuilt = ObservationStore::FromDataset(dataset);
    DatasetBuilder empty("universe-empty", dataset.num_sources(),
                         dataset.num_objects(), dataset.num_values());
    ObservationStore grown =
        ObservationStore::FromDataset(std::move(empty).Build().ValueOrDie());
    const int32_t chunks = dataset.num_observations() < 4 ? 1 : 3;
    for (const ObservationBatch& chunk :
         ChunkDatasetForReplay(dataset, chunks)) {
      grown = grown.AppendBatch(chunk).ValueOrDie();
    }
    EXPECT_EQ(grown.content_fingerprint(), rebuilt.content_fingerprint())
        << "seed=" << seed;
    ObservationStore::Columns a = grown.ToColumns();
    ObservationStore::Columns b = rebuilt.ToColumns();
    EXPECT_EQ(a.objects, b.objects) << "seed=" << seed;
    EXPECT_EQ(a.sources, b.sources) << "seed=" << seed;
    EXPECT_EQ(a.values, b.values) << "seed=" << seed;
    EXPECT_EQ(a.object_offsets, b.object_offsets) << "seed=" << seed;
    EXPECT_EQ(a.truth, b.truth) << "seed=" << seed;
  }
}

// Runs `preset` over `dataset` with the given knobs; returns the output.
// All run-based invariants compare against the baseline configuration
// (1 thread, default kernel tables) built here.
FusionOutput RunConfigured(const testutil::SlimFastPreset& preset,
                           const Dataset& dataset,
                           const TrainTestSplit& split, uint64_t seed,
                           int32_t threads) {
  SlimFastOptions options = FastOptions();
  options.exec.threads = threads;
  return preset.make_with(options)->Run(dataset, split, seed).ValueOrDie();
}

/// Invariants 2-3, one sweep: for each universe, one preset (rotating by
/// seed so all five presets see dozens of universes each) runs the
/// baseline configuration plus the two variations — 4 threads, scalar
/// kernel tables — and every variation must be bit-identical to the
/// baseline.
TEST(PropertyTest, RunInvariantsThreadsSimd) {
  const std::vector<testutil::SlimFastPreset> presets = AllSlimFastPresets();
  const bool wide_default = simd::WideEnabled();
  for (uint64_t seed = 0; seed < kNumUniverses; ++seed) {
    Dataset dataset = RandomUniverse(seed);
    TrainTestSplit split = UniverseSplit(dataset);
    const auto& preset = presets[seed % presets.size()];
    SCOPED_TRACE("seed=" + std::to_string(seed) + " preset=" + preset.name);

    auto baseline = RunConfigured(preset, dataset, split, seed, 1);
    auto threaded = RunConfigured(preset, dataset, split, seed, 4);
    testutil::ExpectSameFusionOutput(baseline, threaded);

    // SIMD == scalar: the baseline above ran the process-default tables
    // (wide when the CPU and kill switches allow); pinning the scalar
    // tables must not move a bit. On boxes where wide was never
    // available both runs use the scalar tables and the check is
    // trivially true.
    simd::SetWideEnabledForTest(false);
    auto scalar = RunConfigured(preset, dataset, split, seed, 1);
    simd::SetWideEnabledForTest(wide_default);
    testutil::ExpectSameFusionOutput(baseline, scalar);
  }
}

/// The sharded batch-ERM path and the accuracy-loss ERM fit (the
/// per-source-count solver, then the calibration pass) are not exercised
/// by the default presets; sweep both on every universe of a smaller
/// universe budget with both variations.
TEST(PropertyTest, RunInvariantsBatchLearners) {
  const bool wide_default = simd::WideEnabled();
  for (uint64_t seed = 0; seed < kNumUniverses; seed += 4) {
    Dataset dataset = RandomUniverse(seed);
    TrainTestSplit split = UniverseSplit(dataset);
    for (const bool accuracy_loss : {false, true}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   (accuracy_loss ? " accuracy-loss ERM" : ""));
      auto make = [&](int32_t threads) {
        SlimFastOptions options = FastOptions();
        options.exec.threads = threads;
        if (accuracy_loss) {
          options.erm.loss = ErmLoss::kAccuracyLogLoss;
          return MakeSlimFastErm(options);
        }
        options.erm.batch = true;
        return MakeSlimFastErm(options);
      };
      auto baseline = make(1)->Run(dataset, split, seed).ValueOrDie();
      auto threaded = make(4)->Run(dataset, split, seed).ValueOrDie();
      testutil::ExpectSameFusionOutput(baseline, threaded);
      simd::SetWideEnabledForTest(false);
      auto scalar = make(1)->Run(dataset, split, seed).ValueOrDie();
      simd::SetWideEnabledForTest(wide_default);
      testutil::ExpectSameFusionOutput(baseline, scalar);
    }
  }
}

}  // namespace
}  // namespace slimfast

// DeltaCompile: incremental compilation must be indistinguishable from
// full recompilation. The oracle is BitwiseEqual — every term coefficient,
// offset, CSR index, and the store fingerprint compared exactly — checked
// for every method preset's model config, several chunkings, and 1 vs 4
// threads (the delta path shards touched-row recompilation).

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/compiled_instance.h"
#include "data/observation_store.h"
#include "test_util.h"

namespace slimfast {
namespace {

using testutil::AllSlimFastPresets;
using testutil::MakeFigure1Dataset;
using testutil::MakePlantedDataset;

Dataset EmptyTwin(const Dataset& dataset) {
  DatasetBuilder builder("empty-twin", dataset.num_sources(),
                         dataset.num_objects(), dataset.num_values());
  *builder.mutable_features() = dataset.features();
  return std::move(builder).Build().ValueOrDie();
}

/// Replays `dataset` into an instance in `num_chunks` delta steps.
std::shared_ptr<const CompiledInstance> DeltaChain(const Dataset& dataset,
                                                   const ModelConfig& config,
                                                   int32_t num_chunks,
                                                   Executor* exec) {
  Dataset empty = EmptyTwin(dataset);
  std::shared_ptr<const CompiledInstance> instance =
      CompileInstance(empty, config).ValueOrDie();
  for (const ObservationBatch& chunk :
       ChunkDatasetForReplay(dataset, num_chunks)) {
    instance = DeltaCompile(*instance, chunk, exec).ValueOrDie();
  }
  return instance;
}

TEST(DeltaCompileTest, MatchesFullRecompileForAllPresets) {
  const std::vector<double> planted = {0.92, 0.85, 0.7, 0.6, 0.55};
  const std::vector<Dataset> datasets = {
      MakeFigure1Dataset(),
      MakePlantedDataset(planted, 60, 0.5, 17),
      MakePlantedDataset(planted, 50, 0.4, 29, /*num_values=*/4),
  };
  for (const auto& preset : AllSlimFastPresets()) {
    ModelConfig config = preset.make()->options().model;
    for (const Dataset& dataset : datasets) {
      std::shared_ptr<const CompiledInstance> full =
          CompileInstance(dataset, config).ValueOrDie();
      for (int32_t threads : {1, 4}) {
        ExecOptions exec_options;
        exec_options.threads = threads;
        Executor exec(exec_options);
        for (int32_t num_chunks : {1, 4}) {
          auto delta = DeltaChain(dataset, config, num_chunks, &exec);
          EXPECT_TRUE(BitwiseEqual(*delta, *full))
              << preset.name << " dataset=" << dataset.name()
              << " chunks=" << num_chunks << " threads=" << threads;
        }
      }
    }
  }
}

TEST(DeltaCompileTest, AnyChunkingYieldsTheSameInstance) {
  const std::vector<double> planted = {0.9, 0.8, 0.65, 0.6};
  Dataset dataset = MakePlantedDataset(planted, 70, 0.45, 41, 3);
  ModelConfig config;
  std::shared_ptr<const CompiledInstance> full =
      CompileInstance(dataset, config).ValueOrDie();
  for (int32_t num_chunks : {2, 3, 9}) {
    auto delta = DeltaChain(dataset, config, num_chunks, nullptr);
    EXPECT_TRUE(BitwiseEqual(*delta, *full)) << "chunks=" << num_chunks;
  }
}

// A batch that first observes a low-id object splices its row into the
// middle of the row list (rows are in ObjectId order), shifting every
// later row index. This is the structurally hardest delta.
TEST(DeltaCompileTest, SplicesNewRowsBetweenExistingOnes) {
  DatasetBuilder builder("splice", 3, 5, 2);
  // Objects 1 and 3 observed initially; 0, 2, 4 appear later.
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 0, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(3, 1, 0));
  Dataset initial = std::move(builder).Build().ValueOrDie();

  ModelConfig config;
  std::shared_ptr<const CompiledInstance> instance =
      CompileInstance(initial, config).ValueOrDie();

  ObservationBatch batch;
  batch.observations = {Observation{0, 2, 1}, Observation{4, 0, 0},
                        Observation{2, 1, 1}, Observation{3, 2, 1}};
  batch.truths = {TruthLabel{0, 1}, TruthLabel{3, 0}};
  instance = DeltaCompile(*instance, batch).ValueOrDie();

  // The oracle: rebuild the concatenated dataset from scratch.
  DatasetBuilder oracle("splice", 3, 5, 2);
  SLIMFAST_CHECK_OK(oracle.AddObservation(1, 0, 1));
  SLIMFAST_CHECK_OK(oracle.AddObservation(3, 1, 0));
  SLIMFAST_CHECK_OK(oracle.AddObservation(0, 2, 1));
  SLIMFAST_CHECK_OK(oracle.AddObservation(4, 0, 0));
  SLIMFAST_CHECK_OK(oracle.AddObservation(2, 1, 1));
  SLIMFAST_CHECK_OK(oracle.AddObservation(3, 2, 1));
  SLIMFAST_CHECK_OK(oracle.SetTruth(0, 1));
  SLIMFAST_CHECK_OK(oracle.SetTruth(3, 0));
  Dataset full_dataset = std::move(oracle).Build().ValueOrDie();
  std::shared_ptr<const CompiledInstance> full =
      CompileInstance(full_dataset, config).ValueOrDie();

  EXPECT_TRUE(BitwiseEqual(*instance, *full));
  EXPECT_EQ(instance->num_rows(), 5);
}

// Growing a binary domain past 2 candidates flips the multiclass offset
// for *every* claim on the object, so the whole row must be re-derived —
// the regression this test pins.
TEST(DeltaCompileTest, DomainGrowthRecomputesMulticlassOffsets) {
  DatasetBuilder builder("grow", 4, 1, 3);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 1, 1));
  Dataset initial = std::move(builder).Build().ValueOrDie();

  ModelConfig config;
  std::shared_ptr<const CompiledInstance> instance =
      CompileInstance(initial, config).ValueOrDie();
  // Binary domain: no offsets.
  for (double offset : instance->cand_offsets) {
    EXPECT_EQ(offset, 0.0);
  }

  ObservationBatch batch;
  batch.observations = {Observation{0, 2, 2}, Observation{0, 3, 0}};
  instance = DeltaCompile(*instance, batch).ValueOrDie();

  DatasetBuilder oracle("grow", 4, 1, 3);
  SLIMFAST_CHECK_OK(oracle.AddObservation(0, 0, 0));
  SLIMFAST_CHECK_OK(oracle.AddObservation(0, 1, 1));
  SLIMFAST_CHECK_OK(oracle.AddObservation(0, 2, 2));
  SLIMFAST_CHECK_OK(oracle.AddObservation(0, 3, 0));
  Dataset full_dataset = std::move(oracle).Build().ValueOrDie();
  std::shared_ptr<const CompiledInstance> full =
      CompileInstance(full_dataset, config).ValueOrDie();
  EXPECT_TRUE(BitwiseEqual(*instance, *full));

  // The 3-value domain now carries log(2) per matching claim.
  bool any_nonzero = false;
  for (double offset : instance->cand_offsets) {
    if (offset != 0.0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
}

// Truth never enters a row's term expressions, so a labels-only batch
// must re-derive zero rows (the flattening pass re-resolves truth
// targets) while still matching a full recompile bitwise.
TEST(DeltaCompileTest, TruthOnlyBatchRecompilesNoRows) {
  DatasetBuilder builder("labels", 3, 3, 2);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 1, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 2, 1));
  Dataset initial = std::move(builder).Build().ValueOrDie();

  ModelConfig config;
  std::shared_ptr<const CompiledInstance> instance =
      CompileInstance(initial, config).ValueOrDie();

  ObservationBatch labels_only;
  labels_only.truths = {TruthLabel{0, 1}, TruthLabel{1, 0},
                        TruthLabel{2, 0}};  // object 2: never observed
  std::vector<ObjectId> recompiled;
  instance =
      DeltaCompile(*instance, labels_only, nullptr, &recompiled).ValueOrDie();
  EXPECT_TRUE(recompiled.empty());

  DatasetBuilder oracle("labels", 3, 3, 2);
  SLIMFAST_CHECK_OK(oracle.AddObservation(0, 0, 1));
  SLIMFAST_CHECK_OK(oracle.AddObservation(1, 1, 0));
  SLIMFAST_CHECK_OK(oracle.AddObservation(1, 2, 1));
  SLIMFAST_CHECK_OK(oracle.SetTruth(0, 1));
  SLIMFAST_CHECK_OK(oracle.SetTruth(1, 0));
  SLIMFAST_CHECK_OK(oracle.SetTruth(2, 0));
  Dataset full_dataset = std::move(oracle).Build().ValueOrDie();
  std::shared_ptr<const CompiledInstance> full =
      CompileInstance(full_dataset, config).ValueOrDie();
  EXPECT_TRUE(BitwiseEqual(*instance, *full));
}

// The edges of the run copy, on 50 objects: a batch that touches the
// first and the last observed row, one that opens a row inside an
// untouched run, a truth-only label on an observed row that the same
// batch does not re-derive, and a truth that arrives before its object's
// first claims. After every batch the delta chain must equal a full
// compile of the history so far, bitwise.
TEST(DeltaCompileTest, RunCopyEdgesMatchFullCompile) {
  constexpr int32_t kSources = 6;
  constexpr int32_t kObjects = 50;
  constexpr int32_t kValues = 4;
  std::vector<Observation> history;
  std::vector<TruthLabel> labels;
  auto full_compile = [&]() {
    DatasetBuilder builder("edges", kSources, kObjects, kValues);
    for (const Observation& obs : history) {
      SLIMFAST_CHECK_OK(
          builder.AddObservation(obs.object, obs.source, obs.value));
    }
    for (const TruthLabel& label : labels) {
      SLIMFAST_CHECK_OK(builder.SetTruth(label.object, label.value));
    }
    return CompileInstance(std::move(builder).Build().ValueOrDie(),
                           ModelConfig{})
        .ValueOrDie();
  };

  // Objects 0..47 are observed by sources 0..2, except 20 and 35; 48 and
  // 49 are not observed yet.
  for (ObjectId o = 0; o < 48; ++o) {
    if (o == 20 || o == 35) continue;
    for (SourceId s = 0; s < 3; ++s) {
      history.push_back(Observation{o, s, (o + s) % kValues});
    }
    if (o % 5 == 0) labels.push_back(TruthLabel{o, o % kValues});
  }
  std::shared_ptr<const CompiledInstance> instance = full_compile();

  std::vector<ObservationBatch> batches(4);
  // The first and the last observed row.
  batches[0].observations = {Observation{0, 3, 3}, Observation{47, 4, 0},
                             Observation{0, 5, 1}};
  // A new row in the middle of the untouched run 1..46.
  batches[1].observations = {Observation{20, 1, 2}, Observation{20, 4, 3}};
  // Object 12 is observed but gets only a truth (a value it was claimed
  // with), so its row keeps its terms and re-resolves its truth target;
  // object 35 gets a truth before its first claim.
  batches[2].observations = {Observation{30, 3, 1}};
  batches[2].truths = {TruthLabel{12, 1}, TruthLabel{35, 2}};
  // Object 35's claims arrive after its truth; object 48 opens a row past
  // the old last one; object 49 is labeled and stays unobserved.
  batches[3].observations = {Observation{48, 0, 1}, Observation{35, 2, 2},
                             Observation{35, 0, 3}};
  batches[3].truths = {TruthLabel{49, 0}};
  const std::vector<std::vector<ObjectId>> expected_recompiled = {
      {0, 47}, {20}, {30}, {35, 48}};

  for (size_t b = 0; b < batches.size(); ++b) {
    std::vector<ObjectId> recompiled;
    instance = DeltaCompile(*instance, batches[b], nullptr, &recompiled)
                   .ValueOrDie();
    history.insert(history.end(), batches[b].observations.begin(),
                   batches[b].observations.end());
    labels.insert(labels.end(), batches[b].truths.begin(),
                  batches[b].truths.end());
    EXPECT_EQ(recompiled, expected_recompiled[b]) << "batch " << b;
    EXPECT_TRUE(BitwiseEqual(*instance, *full_compile())) << "batch " << b;
  }
  EXPECT_EQ(instance->num_rows(), 49);
  EXPECT_EQ(instance->RowIndex(49), -1);
  EXPECT_GE(instance->truth_cand[static_cast<size_t>(
                instance->RowIndex(12))],
            0);
}

TEST(DeltaCompileTest, RejectsCopyingConfiguration) {
  Dataset dataset = MakeFigure1Dataset();
  ModelConfig config;
  config.use_copying_features = true;
  std::shared_ptr<const CompiledInstance> instance =
      CompileInstance(dataset, config).ValueOrDie();
  ObservationBatch batch;
  batch.observations.push_back(Observation{1, 1, 1});
  EXPECT_TRUE(
      DeltaCompile(*instance, batch).status().IsNotImplemented());
}

TEST(DeltaCompileTest, InvalidBatchLeavesBaseUsable) {
  Dataset dataset = MakeFigure1Dataset();
  ModelConfig config;
  std::shared_ptr<const CompiledInstance> instance =
      CompileInstance(dataset, config).ValueOrDie();

  ObservationBatch duplicate;
  duplicate.observations.push_back(Observation{0, 0, 1});
  EXPECT_FALSE(DeltaCompile(*instance, duplicate).ok());

  // The base still extends cleanly afterwards.
  ObservationBatch good;
  good.observations.push_back(Observation{1, 1, 1});
  auto grown = DeltaCompile(*instance, good);
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(grown.ValueOrDie()->store.num_observations(),
            dataset.num_observations() + 1);
}

}  // namespace
}  // namespace slimfast

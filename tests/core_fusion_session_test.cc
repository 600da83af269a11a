// FusionSession: the long-lived incremental engine. Covers the
// Ingest → Relearn → Query loop, warm-start accuracy parity with the
// one-shot batch run (the acceptance bar: within 1%), thread-count
// determinism, and error paths.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/fusion_session.h"
#include "eval/metrics.h"
#include "test_util.h"

namespace slimfast {
namespace {

using testutil::Figure1TruthValues;
using testutil::MakeFigure1Dataset;
using testutil::MakePlantedDataset;
using testutil::MakePrefixSplit;

/// Replay chunks whose truth labels are restricted to the split's training
/// objects — the withheld truth never enters the session.
std::vector<ObservationBatch> TrainOnlyChunks(const Dataset& dataset,
                                              const TrainTestSplit& split,
                                              int32_t num_chunks) {
  std::vector<ObservationBatch> chunks =
      ChunkDatasetForReplay(dataset, num_chunks);
  for (ObservationBatch& chunk : chunks) {
    std::vector<TruthLabel> kept;
    for (const TruthLabel& label : chunk.truths) {
      if (split.IsTrain(label.object)) kept.push_back(label);
    }
    chunk.truths = std::move(kept);
  }
  return chunks;
}

TEST(FusionSessionTest, IngestRelearnQueryRecoversFigure1) {
  Dataset dataset = MakeFigure1Dataset();
  FusionSession session =
      FusionSession::Create(dataset.num_sources(), dataset.num_objects(),
                            dataset.num_values())
          .ValueOrDie();
  EXPECT_EQ(session.Query(0), kNoValue);  // nothing learned yet

  for (const ObservationBatch& chunk : ChunkDatasetForReplay(dataset, 2)) {
    SLIMFAST_CHECK_OK(session.Ingest(chunk).status());
  }
  RelearnStats stats = session.Relearn().ValueOrDie();
  EXPECT_EQ(stats.num_train_objects, 2);
  EXPECT_FALSE(stats.warm_started);  // first fit is always cold

  std::vector<ValueId> golden = Figure1TruthValues();
  for (ObjectId o = 0; o < dataset.num_objects(); ++o) {
    EXPECT_EQ(session.Query(o), golden[static_cast<size_t>(o)]);
  }
  EXPECT_EQ(session.num_observations(), dataset.num_observations());
}

TEST(FusionSessionTest, WarmStartReachesBatchAccuracyWithinOnePercent) {
  const std::vector<double> planted = {0.95, 0.9, 0.9, 0.85, 0.8, 0.75};
  Dataset dataset = MakePlantedDataset(planted, 200, 0.6, 67);
  TrainTestSplit split = MakePrefixSplit(dataset, 30);

  // One-shot batch run: the accuracy bar.
  auto method = MakeSlimFast();
  double batch_accuracy =
      testutil::RunHeldOutAccuracy(method.get(), dataset, split, 5);

  // Incremental run: 5 chunks, relearn after each, warm-started.
  FusionSessionOptions options;
  options.seed = 5;
  FusionSession session =
      FusionSession::Create(dataset.num_sources(), dataset.num_objects(),
                            dataset.num_values(), options)
          .ValueOrDie();
  bool any_warm = false;
  for (const ObservationBatch& chunk : TrainOnlyChunks(dataset, split, 5)) {
    SLIMFAST_CHECK_OK(session.Ingest(chunk).status());
    RelearnStats stats = session.Relearn().ValueOrDie();
    any_warm = any_warm || stats.warm_started;
  }
  EXPECT_TRUE(any_warm);  // relearns after the first ran warm

  double session_accuracy =
      TestAccuracy(dataset, session.predictions(), split).ValueOrDie();
  EXPECT_GE(session_accuracy, batch_accuracy - 0.01)
      << "warm-started incremental accuracy " << session_accuracy
      << " fell more than 1% below one-shot batch accuracy "
      << batch_accuracy;
}

TEST(FusionSessionTest, ThreadCountNeverChangesTheTrajectory) {
  const std::vector<double> planted = {0.9, 0.8, 0.7, 0.6};
  Dataset dataset = MakePlantedDataset(planted, 80, 0.5, 13);
  TrainTestSplit split = MakePrefixSplit(dataset, 16);

  auto run_with_threads = [&](int32_t threads) {
    FusionSessionOptions options;
    options.slimfast.exec.threads = threads;
    FusionSession session =
        FusionSession::Create(dataset.num_sources(), dataset.num_objects(),
                              dataset.num_values(), options)
            .ValueOrDie();
    for (const ObservationBatch& chunk :
         TrainOnlyChunks(dataset, split, 3)) {
      SLIMFAST_CHECK_OK(session.Ingest(chunk).status());
      SLIMFAST_CHECK_OK(session.Relearn().status());
    }
    return std::make_pair(session.predictions(), session.weights());
  };

  auto [serial_predictions, serial_weights] = run_with_threads(1);
  auto [parallel_predictions, parallel_weights] = run_with_threads(4);
  EXPECT_EQ(serial_predictions, parallel_predictions);
  EXPECT_EQ(serial_weights, parallel_weights);
}

TEST(FusionSessionTest, ColdSessionMatchesWarmPredictionsClosely) {
  // Warm-starting is a speed optimization; the *estimates* it serves must
  // stay at batch quality. Compare a warm session against a cold fit on
  // the session's final instance: both should solve the planted instance.
  const std::vector<double> planted = {0.9, 0.85, 0.75, 0.6};
  Dataset dataset = MakePlantedDataset(planted, 120, 0.5, 99);
  TrainTestSplit split = MakePrefixSplit(dataset, 20);

  FusionSessionOptions options;
  FusionSession session =
      FusionSession::Create(dataset.num_sources(), dataset.num_objects(),
                            dataset.num_values(), options)
          .ValueOrDie();
  for (const ObservationBatch& chunk : TrainOnlyChunks(dataset, split, 4)) {
    SLIMFAST_CHECK_OK(session.Ingest(chunk).status());
    SLIMFAST_CHECK_OK(session.Relearn().status());
  }
  double warm_accuracy =
      TestAccuracy(dataset, session.predictions(), split).ValueOrDie();

  // The session trains on exactly the split's training objects (the only
  // truth it ingested), with its own seed.
  SlimFast cold_method(options.slimfast);
  SlimFastFit cold =
      cold_method.FitCompiled(split, options.seed, session.instance())
          .ValueOrDie();
  EXPECT_FALSE(cold.warm_started);
  double cold_accuracy =
      TestAccuracy(dataset, cold.model.PredictAll(), split).ValueOrDie();
  EXPECT_GE(warm_accuracy, cold_accuracy - 0.01);
}

TEST(FusionSessionTest, ErrorPathsLeaveSessionUsable) {
  Dataset dataset = MakeFigure1Dataset();
  FusionSession session =
      FusionSession::Create(dataset.num_sources(), dataset.num_objects(),
                            dataset.num_values())
          .ValueOrDie();

  // Relearn before any data.
  EXPECT_TRUE(session.Relearn().status().IsFailedPrecondition());

  // Bad batch (out-of-range object) is rejected atomically.
  ObservationBatch bad;
  bad.observations.push_back(Observation{99, 0, 0});
  EXPECT_TRUE(session.Ingest(bad).status().IsOutOfRange());
  EXPECT_EQ(session.num_observations(), 0);

  // The session still works afterwards.
  for (const ObservationBatch& chunk : ChunkDatasetForReplay(dataset, 1)) {
    SLIMFAST_CHECK_OK(session.Ingest(chunk).status());
  }
  SLIMFAST_CHECK_OK(session.Relearn().status());
  EXPECT_EQ(session.Query(1), 1);

  // Queries outside the universe answer kNoValue instead of crashing.
  EXPECT_EQ(session.Query(-1), kNoValue);
  EXPECT_EQ(session.Query(1000), kNoValue);
}

TEST(FusionSessionTest, StatsTrackRelearnDurationAndPendingBatches) {
  Dataset dataset = MakeFigure1Dataset();
  FusionSession session =
      FusionSession::Create(dataset.num_sources(), dataset.num_objects(),
                            dataset.num_values())
          .ValueOrDie();

  FusionSession::Stats fresh = session.stats();
  EXPECT_EQ(fresh.pending_batches, 0);
  EXPECT_EQ(fresh.num_relearns, 0);
  EXPECT_EQ(fresh.num_ingested_batches, 0);
  EXPECT_EQ(fresh.last_relearn_seconds, 0.0);

  // Every ingest grows the pending count the serving layer's relearn
  // policy keys off; every relearn resets it and records its duration.
  std::vector<ObservationBatch> chunks = ChunkDatasetForReplay(dataset, 2);
  SLIMFAST_CHECK_OK(session.Ingest(chunks[0]).status());
  EXPECT_EQ(session.stats().pending_batches, 1);
  SLIMFAST_CHECK_OK(session.Ingest(chunks[1]).status());
  EXPECT_EQ(session.stats().pending_batches, 2);
  EXPECT_EQ(session.stats().num_ingested_batches, 2);

  SLIMFAST_CHECK_OK(session.Relearn().status());
  FusionSession::Stats relearned = session.stats();
  EXPECT_EQ(relearned.pending_batches, 0);
  EXPECT_EQ(relearned.num_relearns, 1);
  EXPECT_GT(relearned.last_relearn_seconds, 0.0);
  EXPECT_EQ(relearned.num_observations, dataset.num_observations());
}

TEST(FusionSessionTest, ExportSnapshotCarriesModelAndEvidence) {
  Dataset dataset = MakeFigure1Dataset();
  FusionSession session =
      FusionSession::Create(dataset.num_sources(), dataset.num_objects(),
                            dataset.num_values())
          .ValueOrDie();

  // Pre-relearn: evidence-only snapshot, no model, version 0.
  FusionSnapshotPtr empty = session.ExportSnapshot();
  EXPECT_EQ(empty->version, 0);
  EXPECT_FALSE(empty->has_model());
  EXPECT_EQ(empty->Prediction(0), kNoValue);
  EXPECT_EQ(empty->Confidence(0), 0.0);

  for (const ObservationBatch& chunk : ChunkDatasetForReplay(dataset, 1)) {
    SLIMFAST_CHECK_OK(session.Ingest(chunk).status());
  }
  SLIMFAST_CHECK_OK(session.Relearn().status());

  FusionSnapshotPtr snapshot = session.ExportSnapshot();
  EXPECT_EQ(snapshot->version, 1);
  EXPECT_TRUE(snapshot->has_model());
  EXPECT_EQ(snapshot->num_observations, dataset.num_observations());
  EXPECT_EQ(snapshot->store_fingerprint,
            session.instance()->store.content_fingerprint());

  // The snapshot answers exactly what the session answers.
  std::vector<ValueId> golden = Figure1TruthValues();
  for (ObjectId o = 0; o < dataset.num_objects(); ++o) {
    EXPECT_EQ(snapshot->Prediction(o), session.Query(o));
    EXPECT_EQ(snapshot->Prediction(o), golden[static_cast<size_t>(o)]);
    EXPECT_GT(snapshot->Confidence(o), 0.5);
    // Posterior slices are proper distributions over the object domain.
    std::vector<ValueId> values;
    std::vector<double> probs;
    ASSERT_TRUE(snapshot->PosteriorOf(o, &values, &probs));
    ASSERT_EQ(values.size(), probs.size());
    double sum = 0.0;
    for (double p : probs) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    // Per-object evidence counts come straight from the columnar store.
    EXPECT_GT(snapshot->claim_counts[static_cast<size_t>(o)], 0);
  }
  EXPECT_EQ(snapshot->PosteriorOf(999, nullptr, nullptr), false);

  // Exporting is pure: two exports of the same state are bit-identical.
  EXPECT_TRUE(*snapshot == *session.ExportSnapshot());
}

TEST(FusionSessionTest, CreateValidatesDimensions) {
  EXPECT_FALSE(FusionSession::Create(-1, 2, 2).ok());
  EXPECT_FALSE(FusionSession::Create(2, 2, 0).ok());
  // Mismatched feature space.
  FeatureSpace features(5);
  EXPECT_FALSE(FusionSession::Create(2, 2, 2, {}, features).ok());
  // The copying extension cannot be delta-maintained; Create rejects it
  // up front instead of letting every Ingest fail.
  FusionSessionOptions copying;
  copying.slimfast.model.use_copying_features = true;
  EXPECT_TRUE(FusionSession::Create(3, 2, 2, copying)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace slimfast

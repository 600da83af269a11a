// FusionService: the concurrent serving layer. Covers the sharded-replay
// determinism contract (live concurrent service == offline single-session
// replay, bit for bit, for every SLiMFast preset and thread budget), the
// concurrent-reader hammering scenario the TSan CI job exercises, the
// relearn trigger, and the service-level edge cases (empty universe,
// shards > objects, invalid batches, stopped service).

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "serve/fusion_service.h"
#include "test_util.h"

namespace slimfast {
namespace {

using testutil::AllSlimFastPresets;
using testutil::MakePlantedDataset;

/// Replays `chunks` through a live service (submit everything, drain) and
/// returns the final per-shard snapshots.
std::vector<FusionSnapshotPtr> RunService(
    const Dataset& dataset, const FusionServiceOptions& options,
    const std::vector<ObservationBatch>& chunks,
    FusionServiceStats* stats_out = nullptr) {
  auto service = FusionService::Create(dataset.num_sources(),
                                       dataset.num_objects(),
                                       dataset.num_values(), options,
                                       dataset.features())
                     .ValueOrDie();
  for (const ObservationBatch& chunk : chunks) {
    SLIMFAST_CHECK_OK(service->Submit(chunk));
  }
  SLIMFAST_CHECK_OK(service->Drain());
  std::vector<FusionSnapshotPtr> snapshots = service->AllSnapshots();
  if (stats_out != nullptr) *stats_out = service->stats();
  service->Stop();
  return snapshots;
}

void ExpectSnapshotsEqual(const std::vector<FusionSnapshotPtr>& live,
                          const std::vector<FusionSnapshotPtr>& offline,
                          const std::string& context) {
  ASSERT_EQ(live.size(), offline.size()) << context;
  for (size_t s = 0; s < live.size(); ++s) {
    ASSERT_NE(live[s], nullptr) << context << " shard " << s;
    ASSERT_NE(offline[s], nullptr) << context << " shard " << s;
    EXPECT_TRUE(*live[s] == *offline[s])
        << context << ": shard " << s
        << " snapshot differs from the offline replay (version "
        << live[s]->version << " vs " << offline[s]->version
        << ", observations " << live[s]->num_observations << " vs "
        << offline[s]->num_observations << ")";
  }
}

TEST(FusionServiceTest, AllPresetsMatchOfflineReplayBitForBit) {
  Dataset dataset =
      MakePlantedDataset({0.9, 0.85, 0.8, 0.7, 0.65, 0.6}, 60, 0.5, 21);
  std::vector<ObservationBatch> chunks = ChunkDatasetForReplay(dataset, 5);

  for (const testutil::SlimFastPreset& preset : AllSlimFastPresets()) {
    FusionServiceOptions options;
    options.num_shards = 3;
    options.relearn_every_batches = 2;
    options.session.slimfast = preset.make_with({})->options();
    options.session.seed = 11;

    std::vector<FusionSnapshotPtr> live =
        RunService(dataset, options, chunks);
    std::vector<FusionSnapshotPtr> offline =
        OfflineShardedReplay(dataset.num_sources(), dataset.num_objects(),
                             dataset.num_values(), options, chunks,
                             dataset.features())
            .ValueOrDie();
    ExpectSnapshotsEqual(live, offline, preset.name + " (3 shards)");

    // With one shard the oracle *is* the plain offline single-session
    // run of the full stream — the strongest form of the contract.
    options.num_shards = 1;
    std::vector<FusionSnapshotPtr> live_single =
        RunService(dataset, options, chunks);
    std::vector<FusionSnapshotPtr> offline_single =
        OfflineShardedReplay(dataset.num_sources(), dataset.num_objects(),
                             dataset.num_values(), options, chunks,
                             dataset.features())
            .ValueOrDie();
    ExpectSnapshotsEqual(live_single, offline_single,
                         preset.name + " (1 shard)");
    ASSERT_TRUE(live_single[0]->has_model()) << preset.name;
  }
}

TEST(FusionServiceTest, SingleShardEqualsPlainFusionSessionReplay) {
  Dataset dataset = MakePlantedDataset({0.9, 0.8, 0.7, 0.6}, 40, 0.6, 33);
  std::vector<ObservationBatch> chunks = ChunkDatasetForReplay(dataset, 4);

  FusionServiceOptions options;
  options.num_shards = 1;
  options.relearn_every_batches = 2;
  options.session.seed = 5;
  std::vector<FusionSnapshotPtr> live = RunService(dataset, options, chunks);

  // Hand-rolled single offline FusionSession following the same relearn
  // schedule (every 2 batches + final flush) — no serve-layer machinery.
  FusionSessionOptions session_options = options.session;
  FusionSession session =
      FusionSession::Create(dataset.num_sources(), dataset.num_objects(),
                            dataset.num_values(), session_options,
                            dataset.features())
          .ValueOrDie();
  int64_t applied = 0;
  int32_t pending = 0;
  for (const ObservationBatch& chunk : chunks) {
    if (!chunk.empty()) {
      SLIMFAST_CHECK_OK(session.Ingest(chunk).status());
      ++pending;
    }
    ++applied;
    if (applied % 2 == 0 && pending > 0 && session.num_observations() > 0) {
      SLIMFAST_CHECK_OK(session.Relearn().status());
      pending = 0;
    }
  }
  if (pending > 0 && session.num_observations() > 0) {
    SLIMFAST_CHECK_OK(session.Relearn().status());
  }
  FusionSnapshotPtr offline = session.ExportSnapshot();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_TRUE(*live[0] == *offline)
      << "concurrent single-shard service diverged from the plain offline "
         "FusionSession replay";
}

TEST(FusionServiceTest, ThreadBudgetNeverChangesSnapshots) {
  Dataset dataset = MakePlantedDataset({0.9, 0.8, 0.7, 0.65}, 48, 0.5, 17);
  std::vector<ObservationBatch> chunks = ChunkDatasetForReplay(dataset, 4);

  auto run_with_threads = [&](int32_t threads) {
    FusionServiceOptions options;
    options.num_shards = 3;
    options.relearn_every_batches = 1;
    options.session.seed = 9;
    options.session.slimfast.exec.threads = threads;
    options.shard_exec.threads = threads;
    return RunService(dataset, options, chunks);
  };
  std::vector<FusionSnapshotPtr> serial = run_with_threads(1);
  std::vector<FusionSnapshotPtr> parallel = run_with_threads(4);
  ExpectSnapshotsEqual(serial, parallel, "threads 1 vs 4");
}

// The TSan scenario: reader threads hammer the wait-free query paths the
// whole time the driver is ingesting, relearning, and publishing. Any
// lock shared between the two sides, or any unsynchronized access to
// published state, surfaces here under ThreadSanitizer.
TEST(FusionServiceTest, ConcurrentReadersDuringIngestRelearnPublish) {
  Dataset dataset =
      MakePlantedDataset({0.9, 0.85, 0.75, 0.7, 0.6}, 48, 0.5, 29);
  std::vector<ObservationBatch> chunks = ChunkDatasetForReplay(dataset, 8);

  FusionServiceOptions options;
  options.num_shards = 4;
  options.relearn_every_batches = 1;  // publish storm: relearn every batch
  options.session.seed = 3;
  auto service = FusionService::Create(dataset.num_sources(),
                                       dataset.num_objects(),
                                       dataset.num_values(), options,
                                       dataset.features())
                     .ValueOrDie();

  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads{0};
  std::atomic<int64_t> bad_reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(1000 + static_cast<uint64_t>(r));
      std::vector<ValueId> values;
      std::vector<double> probs;
      while (!stop.load(std::memory_order_acquire)) {
        ObjectId object = static_cast<ObjectId>(
            rng.UniformInt(dataset.num_objects()));
        ValueId value = service->Query(object);
        if (value != kNoValue &&
            (value < 0 || value >= dataset.num_values())) {
          bad_reads.fetch_add(1);
        }
        double confidence = service->QueryConfidence(object);
        if (confidence < 0.0 || confidence > 1.0 + 1e-12) {
          bad_reads.fetch_add(1);
        }
        if (service->QueryPosterior(object, &values, &probs)) {
          double sum = 0.0;
          for (double p : probs) sum += p;
          if (sum < 0.99 || sum > 1.01) bad_reads.fetch_add(1);
        }
        // A consistent multi-field read through one snapshot.
        FusionSnapshotPtr snapshot = service->SnapshotFor(object);
        if (snapshot != nullptr && snapshot->has_model() &&
            snapshot->Prediction(object) != kNoValue &&
            snapshot->Confidence(object) <= 0.0) {
          bad_reads.fetch_add(1);
        }
        reads.fetch_add(1);
      }
    });
  }

  // Writer: stream every chunk while the readers hammer, then drain.
  for (const ObservationBatch& chunk : chunks) {
    SLIMFAST_CHECK_OK(service->Submit(chunk));
    // Exercise the stats paths concurrently with the driver.
    (void)service->stats();
    (void)service->SessionStats();
  }
  SLIMFAST_CHECK_OK(service->Drain());
  // On a loaded single-core box the readers may not have been scheduled
  // at all yet — give them a bounded window to issue at least one query
  // before stopping, so EXPECT_GT(reads, 0) tests the query path rather
  // than the OS scheduler.
  const auto reads_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (reads.load() == 0 &&
         std::chrono::steady_clock::now() < reads_deadline) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(bad_reads.load(), 0);
  FusionServiceStats stats = service->stats();
  EXPECT_EQ(stats.batches_processed, 8);
  EXPECT_GT(stats.relearns, 0);
  EXPECT_GE(stats.publishes, stats.relearns);
  EXPECT_EQ(stats.ingest_failures, 0);

  // Concurrency must not have changed a single bit of the result.
  std::vector<FusionSnapshotPtr> offline =
      OfflineShardedReplay(dataset.num_sources(), dataset.num_objects(),
                           dataset.num_values(), options, chunks,
                           dataset.features())
          .ValueOrDie();
  ExpectSnapshotsEqual(service->AllSnapshots(), offline,
                       "hammered service");
  service->Stop();
}

TEST(FusionServiceTest, MoreShardsThanObjects) {
  Dataset dataset = MakePlantedDataset({0.9, 0.8}, 3, 1.0, 7);
  std::vector<ObservationBatch> chunks = ChunkDatasetForReplay(dataset, 2);

  FusionServiceOptions options;
  options.num_shards = 16;
  options.relearn_every_batches = 1;
  std::vector<FusionSnapshotPtr> live = RunService(dataset, options, chunks);
  std::vector<FusionSnapshotPtr> offline =
      OfflineShardedReplay(dataset.num_sources(), dataset.num_objects(),
                           dataset.num_values(), options, chunks,
                           dataset.features())
          .ValueOrDie();
  ExpectSnapshotsEqual(live, offline, "16 shards over 3 objects");

  // Every object is served by exactly one shard; empty shards stay at
  // version 0 with no model.
  ShardRouter router(16);
  int32_t populated = 0;
  for (int32_t s = 0; s < 16; ++s) {
    if (live[static_cast<size_t>(s)]->num_observations > 0) ++populated;
  }
  EXPECT_LE(populated, 3);
  EXPECT_GE(populated, 1);
  for (ObjectId o = 0; o < 3; ++o) {
    EXPECT_GT(live[static_cast<size_t>(router.ShardOf(o))]->claim_counts
                  [static_cast<size_t>(o)],
              0);
  }
}

TEST(FusionServiceTest, EmptyUniverseServesNoValue) {
  FusionServiceOptions options;
  options.num_shards = 2;
  auto service =
      FusionService::Create(2, 0, 2, options).ValueOrDie();
  EXPECT_EQ(service->Query(0), kNoValue);
  EXPECT_EQ(service->Query(-1), kNoValue);
  SLIMFAST_CHECK_OK(service->Submit(ObservationBatch{}));
  SLIMFAST_CHECK_OK(service->Drain());
  FusionSnapshotPtr snapshot = service->ShardSnapshot(0);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_FALSE(snapshot->has_model());
  EXPECT_EQ(snapshot->version, 0);
  service->Stop();
}

TEST(FusionServiceTest, InvalidBatchSurfacesInStatsNotCrash) {
  Dataset dataset = MakePlantedDataset({0.9, 0.8}, 10, 0.8, 13);
  FusionServiceOptions options;
  options.num_shards = 2;
  auto service = FusionService::Create(dataset.num_sources(),
                                       dataset.num_objects(),
                                       dataset.num_values(), options,
                                       dataset.features())
                     .ValueOrDie();

  ObservationBatch bad;
  bad.observations.push_back(Observation{999, 0, 1});  // out of universe
  SLIMFAST_CHECK_OK(service->Submit(bad));
  // A valid batch afterwards keeps flowing.
  std::vector<ObservationBatch> chunks = ChunkDatasetForReplay(dataset, 1);
  SLIMFAST_CHECK_OK(service->Submit(chunks[0]));
  SLIMFAST_CHECK_OK(service->Drain());

  FusionServiceStats stats = service->stats();
  EXPECT_EQ(stats.ingest_failures, 1);
  EXPECT_FALSE(stats.last_error.empty());
  EXPECT_EQ(stats.batches_processed, 2);
  EXPECT_GT(stats.relearns, 0);
  service->Stop();
}

TEST(FusionServiceTest, SubmitAfterStopFailsDrainSucceeds) {
  auto service = FusionService::Create(2, 4, 2).ValueOrDie();
  service->Stop();
  EXPECT_FALSE(service->Submit(ObservationBatch{}).ok());
  EXPECT_FALSE(service->TrySubmit(ObservationBatch{}).ok());
  SLIMFAST_CHECK_OK(service->Drain());  // everything already flushed
  service->Stop();                      // idempotent
}

TEST(FusionServiceTest, TruthOnlyBatchesStayPendingUntilFittable) {
  FusionServiceOptions options;
  options.num_shards = 1;
  options.relearn_every_batches = 1;
  auto service = FusionService::Create(2, 2, 2, options).ValueOrDie();

  // A truth label with no observations cannot be fit: it must stay
  // pending (it is genuinely unabsorbed), while the refreshed evidence
  // publishes exactly once.
  ObservationBatch truth_only;
  truth_only.truths.push_back(TruthLabel{0, 1});
  SLIMFAST_CHECK_OK(service->Submit(truth_only));
  SLIMFAST_CHECK_OK(service->Drain());
  EXPECT_EQ(service->SessionStats()[0].pending_batches, 1);
  EXPECT_FALSE(service->ShardSnapshot(0)->has_model());
  EXPECT_EQ(service->stats().relearns, 0);
  const int64_t publishes_after_truth = service->stats().publishes;
  EXPECT_EQ(publishes_after_truth, 2);  // initial + evidence refresh
  SLIMFAST_CHECK_OK(service->Drain());  // no change: nothing republished
  EXPECT_EQ(service->stats().publishes, publishes_after_truth);

  // Observations arrive: the next relearn absorbs the waiting label.
  ObservationBatch observations;
  observations.observations.push_back(Observation{0, 0, 1});
  observations.observations.push_back(Observation{1, 1, 0});
  SLIMFAST_CHECK_OK(service->Submit(observations));
  SLIMFAST_CHECK_OK(service->Drain());
  EXPECT_EQ(service->SessionStats()[0].pending_batches, 0);
  EXPECT_GT(service->stats().relearns, 0);
  EXPECT_EQ(service->Query(0), 1);  // the truth-backed value
  service->Stop();
}

TEST(FusionServiceTest, TimedModeStopAppliesEverythingSubmitted) {
  // With observability on, the driver uses timed pops for the flight
  // recorder's sampling tick; a Stop racing a timed timeout must still
  // apply every accepted batch (the driver may only exit once the queue
  // is closed *and* drained).
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const bool prior = obs::SetEnabledForTest(true);
  Dataset dataset = MakePlantedDataset({0.9, 0.8, 0.7}, 24, 0.7, 41);
  std::vector<ObservationBatch> chunks = ChunkDatasetForReplay(dataset, 6);

  FusionServiceOptions options;
  options.num_shards = 2;
  options.relearn_every_batches = 0;  // only the stop flush relearns
  auto service = FusionService::Create(dataset.num_sources(),
                                       dataset.num_objects(),
                                       dataset.num_values(), options,
                                       dataset.features())
                     .ValueOrDie();
  for (const ObservationBatch& chunk : chunks) {
    SLIMFAST_CHECK_OK(service->Submit(chunk));
  }
  service->Stop();  // no Drain: Stop itself must flush

  FusionServiceStats stats = service->stats();
  EXPECT_EQ(stats.batches_processed, 6);
  EXPECT_EQ(stats.observations_ingested, dataset.num_observations());
  EXPECT_GT(stats.relearns, 0);  // the stop flush relearned pending data
  EXPECT_TRUE(service->ShardSnapshot(0)->has_model() ||
              service->ShardSnapshot(1)->has_model());
  obs::SetEnabledForTest(prior);
}

}  // namespace
}  // namespace slimfast

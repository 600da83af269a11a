// Crash recovery end to end: snapshot container integrity, the
// FusionSession State round trip, and the service-level contract —
// Recover(dir) reproduces the exact store fingerprint and bit-identical
// per-shard snapshots of an uninterrupted replay of the acknowledged
// prefix (OfflineShardedReplay is the oracle), including under torn
// final records and across checkpoints.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/fusion_session.h"
#include "serve/durability.h"
#include "serve/fusion_service.h"
#include "storage/snapshot_io.h"
#include "storage/wal.h"
#include "test_util.h"

namespace slimfast {
namespace {

namespace fs = std::filesystem;

using testutil::MakePlantedDataset;

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("slimfast-recovery-test-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

void ExpectSnapshotsBitIdentical(
    const std::vector<FusionSnapshotPtr>& got,
    const std::vector<FusionSnapshotPtr>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t s = 0; s < got.size(); ++s) {
    ASSERT_NE(got[s], nullptr) << "shard " << s;
    ASSERT_NE(want[s], nullptr) << "shard " << s;
    EXPECT_EQ(got[s]->store_fingerprint, want[s]->store_fingerprint)
        << "shard " << s;
    EXPECT_TRUE(*got[s] == *want[s]) << "shard " << s;
  }
}

TEST_F(RecoveryTest, SnapshotFileRejectsEveryCorruptionMode) {
  fs::create_directories(dir_);
  const std::string path = dir_ + "/probe.snap";
  const std::string payload = "twelve bytes";
  SLIMFAST_CHECK_OK(WriteSnapshotFile(path, payload));
  EXPECT_EQ(ReadSnapshotFile(path).ValueOrDie(), payload);

  // Missing file is NotFound (the fresh-start signal), not IOError.
  EXPECT_TRUE(ReadSnapshotFile(dir_ + "/absent.snap").status().IsNotFound());

  // A flipped payload byte fails the CRC.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(10);
    f.write("X", 1);
  }
  EXPECT_TRUE(ReadSnapshotFile(path).status().IsIOError());

  // A torn write (missing footer) is caught even where the CRC bytes
  // happen to be gone too.
  SLIMFAST_CHECK_OK(WriteSnapshotFile(path, payload));
  const auto full_size = fs::file_size(path);
  fs::resize_file(path, full_size - 6);
  EXPECT_TRUE(ReadSnapshotFile(path).status().IsIOError());
}

TEST_F(RecoveryTest, SessionStateRoundTripsBitwise) {
  fs::create_directories(dir_);
  Dataset dataset = MakePlantedDataset({0.95, 0.8, 0.7}, 24, 0.6, 11);
  std::vector<ObservationBatch> batches = ChunkDatasetForReplay(dataset, 4);

  FusionSessionOptions options;
  options.seed = 11;
  FusionSession session =
      FusionSession::Create(dataset.num_sources(), dataset.num_objects(),
                            dataset.num_values(), options,
                            dataset.features())
          .ValueOrDie();
  SLIMFAST_CHECK_OK(session.Ingest(batches[0]).status());
  SLIMFAST_CHECK_OK(session.Ingest(batches[1]).status());
  SLIMFAST_CHECK_OK(session.Relearn().status());
  SLIMFAST_CHECK_OK(session.Ingest(batches[2]).status());  // pending = 1

  // Through the full on-disk format, not just in-memory structs.
  const std::string path = ShardSnapshotPath(dir_, 0, 3);
  SLIMFAST_CHECK_OK(WriteShardSnapshot(path, session.instance()->store,
                                       session.ExportState()));
  ShardCheckpoint checkpoint = ReadShardSnapshot(path).ValueOrDie();
  EXPECT_TRUE(checkpoint.store == session.instance()->store);
  EXPECT_TRUE(checkpoint.state == session.ExportState());

  FusionSession restored =
      FusionSession::Restore(checkpoint.store, checkpoint.state, options,
                             dataset.features())
          .ValueOrDie();
  EXPECT_TRUE(restored.ExportState() == session.ExportState());
  EXPECT_TRUE(restored.instance()->store == session.instance()->store);
  // Restore compiles the checkpointed store directly; the result must be
  // the delta-maintained instance of the exporting session, bit for bit.
  EXPECT_TRUE(BitwiseEqual(*restored.instance(), *session.instance()));
  EXPECT_TRUE(*restored.ExportSnapshot() == *session.ExportSnapshot());

  // The restored session resumes the exact warm-start trajectory: same
  // future ingests + relearns, bit-identical future snapshots.
  SLIMFAST_CHECK_OK(session.Ingest(batches[3]).status());
  SLIMFAST_CHECK_OK(restored.Ingest(batches[3]).status());
  SLIMFAST_CHECK_OK(session.Relearn().status());
  SLIMFAST_CHECK_OK(restored.Relearn().status());
  EXPECT_TRUE(*restored.ExportSnapshot() == *session.ExportSnapshot());
  EXPECT_TRUE(restored.ExportState() == session.ExportState());
}

TEST_F(RecoveryTest, RestoreRejectsInconsistentState) {
  Dataset dataset = MakePlantedDataset({0.9, 0.8}, 8, 0.8, 3);
  FusionSession session =
      FusionSession::Create(dataset.num_sources(), dataset.num_objects(),
                            dataset.num_values())
          .ValueOrDie();
  std::vector<ObservationBatch> batches = ChunkDatasetForReplay(dataset, 1);
  SLIMFAST_CHECK_OK(session.Ingest(batches[0]).status());
  SLIMFAST_CHECK_OK(session.Relearn().status());
  const ObservationStore& store = session.instance()->store;

  FusionSession::State state = session.ExportState();
  state.pending_batches = state.num_ingested_batches + 1;
  EXPECT_TRUE(FusionSession::Restore(store, state)
                  .status()
                  .IsInvalidArgument());

  state = session.ExportState();
  state.predictions.pop_back();  // mis-sized model state
  EXPECT_FALSE(FusionSession::Restore(store, state).ok());

  state = session.ExportState();
  state.num_relearns = 0;  // carries a model but claims no relearns
  EXPECT_FALSE(FusionSession::Restore(store, state).ok());

  // Weights that do not match the parameter layout would silently turn
  // the next warm relearn into a cold fit.
  state = session.ExportState();
  state.weights.push_back(0.0);
  EXPECT_TRUE(FusionSession::Restore(store, state)
                  .status()
                  .IsInvalidArgument());
  state.weights.resize(state.weights.size() - 2);
  EXPECT_TRUE(FusionSession::Restore(store, state)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(RecoveryTest, WalOnlyRecoveryMatchesOfflineShardedReplay) {
  Dataset dataset = MakePlantedDataset({0.95, 0.85, 0.75, 0.7}, 30, 0.6, 5);
  std::vector<ObservationBatch> batches = ChunkDatasetForReplay(dataset, 5);

  FusionServiceOptions options;
  options.num_shards = 2;
  options.relearn_every_batches = 2;
  options.durability.wal_dir = dir_;

  std::vector<FusionSnapshotPtr> live;
  {
    std::unique_ptr<FusionService> service =
        FusionService::Create(dataset.num_sources(), dataset.num_objects(),
                              dataset.num_values(), options,
                              dataset.features())
            .ValueOrDie();
    for (const ObservationBatch& batch : batches) {
      SLIMFAST_CHECK_OK(service->Submit(batch));
    }
    SLIMFAST_CHECK_OK(service->Drain());
    live = service->AllSnapshots();
    service->Stop();
  }

  std::vector<FusionSnapshotPtr> offline =
      OfflineShardedReplay(dataset.num_sources(), dataset.num_objects(),
                           dataset.num_values(), options, batches,
                           dataset.features())
          .ValueOrDie();
  ExpectSnapshotsBitIdentical(live, offline);

  // Recovery replays the whole log: same snapshots, bit for bit.
  std::unique_ptr<FusionService> recovered =
      FusionService::Create(dataset.num_sources(), dataset.num_objects(),
                            dataset.num_values(), options,
                            dataset.features())
          .ValueOrDie();
  ExpectSnapshotsBitIdentical(recovered->AllSnapshots(), offline);
  recovered->Stop();
}

TEST_F(RecoveryTest, LifetimeCountersSurviveRecovery) {
  // The STATS/METRICS contract after a crash: `recovered` flips to
  // true, process-scoped uptime restarts, and the stream-lifetime
  // counters (batches = WAL sequence, relearns and observations from
  // the recovered session state) continue where the first life left
  // off instead of resetting to zero.
  Dataset dataset = MakePlantedDataset({0.9, 0.8, 0.7}, 24, 0.7, 11);
  std::vector<ObservationBatch> batches = ChunkDatasetForReplay(dataset, 4);

  FusionServiceOptions options;
  options.num_shards = 2;
  options.relearn_every_batches = 2;
  options.durability.wal_dir = dir_;

  FusionServiceStats first_life;
  {
    std::unique_ptr<FusionService> service =
        FusionService::Create(dataset.num_sources(), dataset.num_objects(),
                              dataset.num_values(), options,
                              dataset.features())
            .ValueOrDie();
    for (const ObservationBatch& batch : batches) {
      SLIMFAST_CHECK_OK(service->Submit(batch));
    }
    SLIMFAST_CHECK_OK(service->Drain());
    // Checkpoint half-way through the stream's durability story: the
    // second life must restore these counts from the checkpointed
    // session state, not recount a replayed prefix.
    SLIMFAST_CHECK_OK(service->Checkpoint());
    first_life = service->stats();
    service->Stop();
  }
  EXPECT_FALSE(first_life.recovered);
  EXPECT_GE(first_life.uptime_seconds, 0.0);
  EXPECT_EQ(first_life.lifetime_batches,
            static_cast<int64_t>(batches.size()));
  EXPECT_GT(first_life.lifetime_relearns, 0);
  EXPECT_GT(first_life.lifetime_observations, 0);

  std::unique_ptr<FusionService> recovered =
      FusionService::Create(dataset.num_sources(), dataset.num_objects(),
                            dataset.num_values(), options,
                            dataset.features())
          .ValueOrDie();
  const FusionServiceStats second_life = recovered->stats();
  EXPECT_TRUE(second_life.recovered);
  // Process-scoped counters reset with the process...
  EXPECT_EQ(second_life.batches_processed, 0);
  // ...while the stream-lifetime counters survive the restart.
  EXPECT_EQ(second_life.lifetime_batches, first_life.lifetime_batches);
  EXPECT_EQ(second_life.lifetime_relearns, first_life.lifetime_relearns);
  EXPECT_EQ(second_life.lifetime_observations,
            first_life.lifetime_observations);

  // The stream keeps advancing after recovery: one more batch bumps
  // the lifetime counters past the first life's totals. The new
  // observation must use an (object, source) pair the planted dataset
  // left empty — the store rejects duplicate claims.
  std::set<std::pair<int32_t, int32_t>> claimed;
  for (const ObservationBatch& batch : batches) {
    for (const Observation& observation : batch.observations) {
      claimed.emplace(observation.object, observation.source);
    }
  }
  ObservationBatch extra;
  for (int32_t object = 0;
       object < dataset.num_objects() && extra.observations.empty();
       ++object) {
    for (int32_t source = 0; source < dataset.num_sources(); ++source) {
      if (claimed.count({object, source}) == 0) {
        extra.observations.push_back(Observation{object, source, 0});
        break;
      }
    }
  }
  ASSERT_EQ(extra.observations.size(), 1u);
  SLIMFAST_CHECK_OK(recovered->Submit(extra));
  SLIMFAST_CHECK_OK(recovered->Drain());
  const FusionServiceStats advanced = recovered->stats();
  EXPECT_EQ(advanced.lifetime_batches, first_life.lifetime_batches + 1);
  EXPECT_EQ(advanced.lifetime_observations,
            first_life.lifetime_observations + 1);
  EXPECT_EQ(advanced.batches_processed, 1);
  recovered->Stop();
}

TEST_F(RecoveryTest, RecoverRejectsTopologyMismatch) {
  Dataset dataset = MakePlantedDataset({0.9, 0.8}, 10, 0.8, 9);
  FusionServiceOptions options;
  options.num_shards = 2;
  options.relearn_every_batches = 1;
  options.durability.wal_dir = dir_;
  {
    std::unique_ptr<FusionService> service =
        FusionService::Create(dataset.num_sources(), dataset.num_objects(),
                              dataset.num_values(), options,
                              dataset.features())
            .ValueOrDie();
    std::vector<ObservationBatch> batches =
        ChunkDatasetForReplay(dataset, 2);
    for (const ObservationBatch& batch : batches) {
      SLIMFAST_CHECK_OK(service->Submit(batch));
    }
    SLIMFAST_CHECK_OK(service->Checkpoint());
    service->Stop();
  }
  // Same directory, different shard count: the checkpointed per-shard
  // partition is meaningless under the new topology — refuse to load it.
  FusionServiceOptions reshard = options;
  reshard.num_shards = 3;
  auto result = FusionService::Create(
      dataset.num_sources(), dataset.num_objects(), dataset.num_values(),
      reshard, dataset.features());
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsFailedPrecondition());
}

TEST_F(RecoveryTest, TornFinalRecordRecoversTheAcknowledgedPrefix) {
  // Tiny universe, handmade batches, a one-observation final batch — so
  // "every byte boundary of the final record" is a short loop.
  ObservationBatch b0;
  b0.observations = {Observation{0, 0, 0}, Observation{0, 1, 1}};
  ObservationBatch b1;
  b1.observations = {Observation{1, 0, 1}};
  b1.truths = {TruthLabel{0, 0}};
  ObservationBatch b2;
  b2.observations = {Observation{1, 2, 1}};
  const std::vector<ObservationBatch> batches = {b0, b1, b2};

  FusionServiceOptions options;
  options.num_shards = 2;
  options.relearn_every_batches = 1;
  options.durability.wal_dir = dir_;
  {
    std::unique_ptr<FusionService> service =
        FusionService::Create(3, 2, 2, options).ValueOrDie();
    for (const ObservationBatch& batch : batches) {
      SLIMFAST_CHECK_OK(service->Submit(batch));
    }
    SLIMFAST_CHECK_OK(service->Drain());
    service->Stop();
  }

  WalScan clean = ScanWal(dir_).ValueOrDie();
  ASSERT_EQ(clean.segments.size(), 1u);
  const std::string segment = clean.segments[0].path;
  const int64_t full_bytes = clean.segments[0].valid_bytes;
  std::ifstream in(segment, std::ios::binary);
  const std::string full_content((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  in.close();
  ASSERT_EQ(static_cast<int64_t>(full_content.size()), full_bytes);

  // Largest truncation at which batch 3's record is cleanly gone.
  int64_t final_record_begin = full_bytes - 1;
  for (; final_record_begin > 0; --final_record_begin) {
    fs::resize_file(segment, static_cast<uintmax_t>(final_record_begin));
    WalScan scan = ScanWal(dir_).ValueOrDie();
    if (scan.segments[0].record_count == 2 && !scan.tail_torn) break;
  }
  ASSERT_GT(final_record_begin, 0);

  const std::vector<ObservationBatch> acked = {b0, b1};
  std::vector<FusionSnapshotPtr> offline_acked =
      OfflineShardedReplay(3, 2, 2, options, acked).ValueOrDie();

  for (int64_t cut = final_record_begin; cut < full_bytes; ++cut) {
    {
      std::ofstream out(segment, std::ios::binary | std::ios::trunc);
      out.write(full_content.data(), static_cast<std::streamsize>(cut));
    }
    std::unique_ptr<FusionService> recovered =
        FusionService::Recover(dir_, 3, 2, 2, options).ValueOrDie();
    ExpectSnapshotsBitIdentical(recovered->AllSnapshots(), offline_acked);
    // The torn suffix was truncated at open: the service can keep
    // ingesting, and the re-submitted batch lands at sequence 3 again.
    SLIMFAST_CHECK_OK(recovered->Submit(b2));
    SLIMFAST_CHECK_OK(recovered->Drain());
    std::vector<FusionSnapshotPtr> resumed = recovered->AllSnapshots();
    std::vector<FusionSnapshotPtr> offline_all =
        OfflineShardedReplay(3, 2, 2, options, batches).ValueOrDie();
    for (size_t s = 0; s < resumed.size(); ++s) {
      EXPECT_EQ(resumed[s]->store_fingerprint,
                offline_all[s]->store_fingerprint)
          << "cut=" << cut << " shard=" << s;
    }
    recovered->Stop();
  }
}

TEST_F(RecoveryTest, CheckpointPlusTailRecoversAndTruncates) {
  struct Shape {
    Dataset dataset;
    int32_t chunks;
    int32_t num_shards;
    int32_t relearn_every;
    int32_t checkpoint_after;
    /// Queries issued after every submit. They must not reach any
    /// shard's model: recovery replays the log with no queries at all.
    int32_t queries_per_submit;
  };
  const Shape shapes[] = {
      {MakePlantedDataset({0.9, 0.85, 0.8}, 20, 0.7, 17), 5, 2, 2, 3, 0},
      {MakePlantedDataset({0.95, 0.9, 0.85, 0.8, 0.7, 0.65}, 80, 0.6, 41),
       16, 6, 1, 8, 50},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE("shards=" + std::to_string(shape.num_shards) +
                 " chunks=" + std::to_string(shape.chunks));
    fs::remove_all(dir_);
    const Dataset& dataset = shape.dataset;
    const std::vector<ObservationBatch> batches =
        ChunkDatasetForReplay(dataset, shape.chunks);
    const int32_t num_batches = static_cast<int32_t>(batches.size());

    FusionServiceOptions options;
    options.num_shards = shape.num_shards;
    options.relearn_every_batches = shape.relearn_every;
    options.durability.wal_dir = dir_;

    std::vector<FusionSnapshotPtr> live;
    {
      std::unique_ptr<FusionService> service =
          FusionService::Create(dataset.num_sources(),
                                dataset.num_objects(), dataset.num_values(),
                                options, dataset.features())
              .ValueOrDie();
      for (int32_t i = 0; i < num_batches; ++i) {
        if (i == shape.checkpoint_after) {
          SLIMFAST_CHECK_OK(service->Checkpoint());
        }
        SLIMFAST_CHECK_OK(service->Submit(batches[static_cast<size_t>(i)]));
        for (int32_t q = 0; q < shape.queries_per_submit; ++q) {
          (void)service->Query(q % 3);
        }
      }
      SLIMFAST_CHECK_OK(service->Drain());
      live = service->AllSnapshots();
      service->Stop();
    }

    // The checkpoint truncated the log: only the tail remains on disk,
    // and the manifest records the batches applied before it.
    const uint64_t checkpointed =
        static_cast<uint64_t>(shape.checkpoint_after);
    WalScan scan = ScanWal(dir_).ValueOrDie();
    ASSERT_FALSE(scan.segments.empty());
    EXPECT_EQ(scan.segments.front().first_sequence, checkpointed + 1);
    EXPECT_EQ(scan.next_sequence, static_cast<uint64_t>(num_batches) + 1);
    CheckpointManifest manifest = ReadManifest(dir_).ValueOrDie();
    EXPECT_EQ(manifest.applied_batches, checkpointed);
    EXPECT_EQ(manifest.num_shards, shape.num_shards);

    // Snapshot + tail replay lands on the same state as the live run and
    // the from-scratch offline replay of the full stream.
    std::vector<FusionSnapshotPtr> offline =
        OfflineShardedReplay(dataset.num_sources(), dataset.num_objects(),
                             dataset.num_values(), options, batches,
                             dataset.features())
            .ValueOrDie();
    ExpectSnapshotsBitIdentical(live, offline);
    std::unique_ptr<FusionService> recovered =
        FusionService::Recover(dir_, dataset.num_sources(),
                               dataset.num_objects(), dataset.num_values(),
                               options, dataset.features())
            .ValueOrDie();
    ExpectSnapshotsBitIdentical(recovered->AllSnapshots(), offline);
    recovered->Stop();
  }
}

TEST_F(RecoveryTest, CheckpointOnlyRecoveryContinuesLikeADrainedService) {
  Dataset dataset = MakePlantedDataset({0.95, 0.8, 0.7, 0.65}, 24, 0.6, 29);
  std::vector<ObservationBatch> batches = ChunkDatasetForReplay(dataset, 6);

  FusionServiceOptions base;
  base.num_shards = 3;
  base.relearn_every_batches = 2;

  // Oracle: one uninterrupted service with a Drain where the crash will
  // be. Recovery's final flush is exactly a drain at the recovery
  // point, so this is the trajectory a recovered service must rejoin.
  std::vector<FusionSnapshotPtr> oracle;
  {
    std::unique_ptr<FusionService> service =
        FusionService::Create(dataset.num_sources(), dataset.num_objects(),
                              dataset.num_values(), base,
                              dataset.features())
            .ValueOrDie();
    for (int32_t i = 0; i < 4; ++i) {
      SLIMFAST_CHECK_OK(service->Submit(batches[static_cast<size_t>(i)]));
    }
    SLIMFAST_CHECK_OK(service->Drain());
    for (int32_t i = 4; i < 6; ++i) {
      SLIMFAST_CHECK_OK(service->Submit(batches[static_cast<size_t>(i)]));
    }
    SLIMFAST_CHECK_OK(service->Drain());
    oracle = service->AllSnapshots();
    service->Stop();
  }

  FusionServiceOptions durable = base;
  durable.durability.wal_dir = dir_;
  {
    std::unique_ptr<FusionService> service =
        FusionService::Create(dataset.num_sources(), dataset.num_objects(),
                              dataset.num_values(), durable,
                              dataset.features())
            .ValueOrDie();
    for (int32_t i = 0; i < 4; ++i) {
      SLIMFAST_CHECK_OK(service->Submit(batches[static_cast<size_t>(i)]));
    }
    SLIMFAST_CHECK_OK(service->Checkpoint());
    service->Stop();
  }

  std::unique_ptr<FusionService> recovered =
      FusionService::Recover(dir_, dataset.num_sources(),
                             dataset.num_objects(), dataset.num_values(),
                             durable, dataset.features())
          .ValueOrDie();
  for (int32_t i = 4; i < 6; ++i) {
    SLIMFAST_CHECK_OK(recovered->Submit(batches[static_cast<size_t>(i)]));
  }
  SLIMFAST_CHECK_OK(recovered->Drain());
  ExpectSnapshotsBitIdentical(recovered->AllSnapshots(), oracle);
  recovered->Stop();
}

}  // namespace
}  // namespace slimfast

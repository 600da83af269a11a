// The service's one relearn policy and ingest admission control. At
// every K boundary, and at every drain, every shard with pending data it
// can fit relearns, and the live service matches the offline oracle.
// Admission control sheds deterministically with a retry hint.

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/fusion_service.h"
#include "serve/router.h"
#include "test_util.h"

namespace slimfast {
namespace {

using testutil::MakePlantedDataset;

/// The relearn schedule the policy must produce, computed from the
/// batches alone: at every K-th batch, every shard with pending data it
/// can fit (it has observations) relearns, in shard order; the drain
/// flush after the last batch relearns the rest. Truth-only shards stay
/// pending until observations arrive.
std::vector<std::pair<int64_t, int32_t>> ExpectedSchedule(
    const std::vector<ObservationBatch>& batches, int32_t num_shards,
    int32_t every_batches) {
  const ShardRouter router(num_shards);
  std::vector<int32_t> pending(static_cast<size_t>(num_shards), 0);
  std::vector<bool> fittable(static_cast<size_t>(num_shards), false);
  std::vector<std::pair<int64_t, int32_t>> events;
  auto relearn_due = [&](int64_t batch_index) {
    for (int32_t s = 0; s < num_shards; ++s) {
      if (pending[static_cast<size_t>(s)] > 0 &&
          fittable[static_cast<size_t>(s)]) {
        events.emplace_back(batch_index, s);
        pending[static_cast<size_t>(s)] = 0;
      }
    }
  };
  int64_t applied = 0;
  for (const ObservationBatch& batch : batches) {
    const std::vector<ObservationBatch> subs = router.Split(batch);
    for (int32_t s = 0; s < num_shards; ++s) {
      const ObservationBatch& sub = subs[static_cast<size_t>(s)];
      if (sub.empty()) continue;
      ++pending[static_cast<size_t>(s)];
      if (!sub.observations.empty()) fittable[static_cast<size_t>(s)] = true;
    }
    ++applied;
    if (applied % every_batches == 0) relearn_due(applied);
  }
  relearn_due(applied);  // the drain flush
  return events;
}

TEST(SchedulerServiceTest, DefaultOptionsRelearnEveryPendingShardPerCycle) {
  const Dataset dataset =
      MakePlantedDataset({0.95, 0.85, 0.8, 0.7}, 60, 0.6, 23);
  // Every truth label rides in a leading truth-only batch, so the first
  // boundary sees pending shards with nothing to fit yet.
  std::vector<ObservationBatch> batches = ChunkDatasetForReplay(dataset, 8);
  ObservationBatch labels;
  for (ObservationBatch& batch : batches) {
    labels.truths.insert(labels.truths.end(), batch.truths.begin(),
                         batch.truths.end());
    batch.truths.clear();
  }
  batches.insert(batches.begin(), std::move(labels));

  for (int32_t every : {1, 3}) {
    FusionServiceOptions options;
    options.relearn_every_batches = every;
    auto service = FusionService::Create(dataset.num_sources(),
                                         dataset.num_objects(),
                                         dataset.num_values(), options,
                                         dataset.features())
                       .ValueOrDie();
    // Drain at every K boundary and after the last batch, and read which
    // shards' relearn counters moved since the previous drain. A drain
    // right after a K boundary relearns nothing the boundary left (only
    // unfittable shards are still pending), so it does not change the
    // schedule.
    std::vector<std::pair<int64_t, int32_t>> observed;
    std::vector<int32_t> relearns(static_cast<size_t>(options.num_shards),
                                  0);
    for (size_t i = 0; i < batches.size(); ++i) {
      SLIMFAST_CHECK_OK(service->Submit(batches[i]));
      const int64_t applied = static_cast<int64_t>(i) + 1;
      if (applied % every != 0 && i + 1 != batches.size()) continue;
      SLIMFAST_CHECK_OK(service->Drain());
      const std::vector<FusionSession::Stats> stats = service->SessionStats();
      for (int32_t s = 0; s < options.num_shards; ++s) {
        const int32_t now = stats[static_cast<size_t>(s)].num_relearns;
        const int32_t cycle_relearns = now - relearns[static_cast<size_t>(s)];
        ASSERT_LE(cycle_relearns, 1) << "shard " << s << " batch " << applied;
        if (cycle_relearns == 1) observed.emplace_back(applied, s);
        relearns[static_cast<size_t>(s)] = now;
      }
    }
    const std::vector<FusionSnapshotPtr> live = service->AllSnapshots();
    EXPECT_EQ(service->stats().relearns,
              static_cast<int64_t>(observed.size()));
    service->Stop();

    const std::vector<std::pair<int64_t, int32_t>> expected =
        ExpectedSchedule(batches, options.num_shards, every);
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(observed, expected) << "relearn every " << every;

    const std::vector<FusionSnapshotPtr> offline =
        OfflineShardedReplay(dataset.num_sources(), dataset.num_objects(),
                             dataset.num_values(), options, batches,
                             dataset.features())
            .ValueOrDie();
    ASSERT_EQ(live.size(), offline.size());
    for (size_t s = 0; s < live.size(); ++s) {
      EXPECT_TRUE(*live[s] == *offline[s])
          << "relearn every " << every << " shard " << s;
    }
  }
}

TEST(SchedulerServiceTest, BacklogWatermarkShedsWithRetryHint) {
  const Dataset dataset = MakePlantedDataset({0.9, 0.8}, 12, 0.8, 3);
  FusionServiceOptions options;
  options.num_shards = 2;
  options.relearn_every_batches = 1;
  options.shed_backlog_watermark = 1;
  auto service = FusionService::Create(dataset.num_sources(),
                                       dataset.num_objects(),
                                       dataset.num_values(), options,
                                       dataset.features())
                     .ValueOrDie();
  // A truth-only batch leaves its shard permanently pending (nothing to
  // fit yet), so the relearn backlog deterministically sits at >= 1.
  ObservationBatch truth_only;
  truth_only.truths.push_back(TruthLabel{0, 0});
  SLIMFAST_CHECK_OK(service->Submit(truth_only));
  SLIMFAST_CHECK_OK(service->Drain());

  ObservationBatch next;
  next.observations.push_back(Observation{0, 0, 0});
  int64_t retry_hint_ms = 0;
  const Status status =
      service->SubmitWithBackpressure(std::move(next), &retry_hint_ms);
  EXPECT_TRUE(status.IsOutOfRange()) << status.ToString();
  EXPECT_GE(retry_hint_ms, 1);
  EXPECT_LE(retry_hint_ms, 30000);
  EXPECT_EQ(service->stats().sheds, 1);

  const SchedInspection sched = service->SchedStats();
  EXPECT_GE(sched.backlog, 1);
  EXPECT_EQ(sched.sheds, 1);
  service->Stop();
}

TEST(SchedulerServiceTest, NoWatermarksMeansBlockingSubmit) {
  const Dataset dataset = MakePlantedDataset({0.9, 0.8}, 12, 0.8, 3);
  FusionServiceOptions options;
  options.num_shards = 2;
  auto service = FusionService::Create(dataset.num_sources(),
                                       dataset.num_objects(),
                                       dataset.num_values(), options,
                                       dataset.features())
                     .ValueOrDie();
  ObservationBatch batch;
  batch.observations.push_back(Observation{0, 0, 0});
  int64_t retry_hint_ms = -1;
  SLIMFAST_CHECK_OK(
      service->SubmitWithBackpressure(std::move(batch), &retry_hint_ms));
  EXPECT_EQ(retry_hint_ms, 0);
  EXPECT_EQ(service->stats().sheds, 0);
  service->Stop();
}

}  // namespace
}  // namespace slimfast

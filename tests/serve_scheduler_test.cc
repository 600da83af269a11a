// The traffic-aware relearn scheduler and ingest admission control.
// Unit-level: RelearnScheduler's priority order, queue levels, budgets,
// deferral bound, and determinism. Service-level: the default unlimited
// budgets relearn every pending fittable shard at every K boundary, the
// determinism contract under the scheduler (zero-traffic runs match the
// offline oracle directly; traffic-shaped runs match the replay of
// their recorded schedule), deterministic admission sheds with retry
// hints, and the skewed Zipfian scenario harness (including back-to-back
// unlimited/budgeted phases in one process — the teardown-race
// regression the TSan CI job hammers).

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/fusion_service.h"
#include "serve/loadgen.h"
#include "serve/router.h"
#include "serve/scheduler.h"
#include "test_util.h"

namespace slimfast {
namespace {

using testutil::MakePlantedDataset;

std::vector<ShardSchedInput> WarmInputs(int32_t num_shards) {
  std::vector<ShardSchedInput> inputs(static_cast<size_t>(num_shards));
  for (auto& in : inputs) {
    in.pending = 1;
    in.can_fit = true;
    in.has_model = true;
  }
  return inputs;
}

TEST(RelearnSchedulerTest, RanksByTrafficTimesStalenessTimesPending) {
  SchedulerOptions options;
  options.warm_budget_per_cycle = 2;
  options.cold_budget_per_cycle = 0;
  RelearnScheduler scheduler(options, 4);

  std::vector<ShardSchedInput> inputs = WarmInputs(4);
  inputs[0].traffic = 5;
  inputs[1].traffic = 100;  // the hot shard
  inputs[2].traffic = 0;
  inputs[3].traffic = 40;
  std::vector<int32_t> selected = scheduler.DecideCycle(1, inputs);
  // Warm budget 2: the two highest-traffic shards, hottest first.
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0], 1);
  EXPECT_EQ(selected[1], 3);
  // Losers accrued deferral; winners reset.
  EXPECT_EQ(scheduler.shard_state()[1].deferred_cycles, 0);
  EXPECT_EQ(scheduler.shard_state()[0].deferred_cycles, 1);
  EXPECT_EQ(scheduler.shard_state()[2].deferred_cycles, 1);

  // Pending amplifies priority the same way staleness does: shard 0
  // with 10 pending batches now outranks shard 3's larger traffic.
  inputs[0].pending = 10;
  inputs[0].traffic = 20;
  inputs[1].traffic = 0;
  inputs[1].pending = 0;  // freshly drained, nothing to do
  selected = scheduler.DecideCycle(2, inputs);
  ASSERT_GE(selected.size(), 1u);
  EXPECT_EQ(selected[0], 0);
}

TEST(RelearnSchedulerTest, ColdShardsDrawFromTheirOwnBudget) {
  SchedulerOptions options;
  options.warm_budget_per_cycle = 1;
  options.cold_budget_per_cycle = 1;
  RelearnScheduler scheduler(options, 4);

  std::vector<ShardSchedInput> inputs = WarmInputs(4);
  inputs[2].has_model = false;  // cold, first fit still ahead
  inputs[3].has_model = false;
  inputs[0].traffic = 10;
  inputs[3].traffic = 50;
  const std::vector<int32_t> selected = scheduler.DecideCycle(1, inputs);
  // One warm pick (shard 0, the hotter warm shard) and one cold pick
  // (shard 3, the hotter cold shard), warm queue first.
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0], 0);
  EXPECT_EQ(selected[1], 3);
}

TEST(RelearnSchedulerTest, StarvedShardIsForcedPastTheBudget) {
  SchedulerOptions options;
  options.warm_budget_per_cycle = 1;
  options.cold_budget_per_cycle = 0;
  options.max_deferred_cycles = 2;
  RelearnScheduler scheduler(options, 2);

  std::vector<ShardSchedInput> inputs = WarmInputs(2);
  inputs[0].traffic = 1000;  // shard 1 can never win on priority
  for (int64_t cycle = 1; cycle <= 2; ++cycle) {
    const std::vector<int32_t> selected =
        scheduler.DecideCycle(cycle, inputs);
    ASSERT_EQ(selected.size(), 1u) << "cycle " << cycle;
    EXPECT_EQ(selected[0], 0) << "cycle " << cycle;
  }
  EXPECT_EQ(scheduler.shard_state()[1].deferred_cycles, 2);
  // Third cycle: shard 1 hit max_deferred_cycles and rides outside the
  // budget — the scheduler's staleness bound.
  const std::vector<int32_t> selected = scheduler.DecideCycle(3, inputs);
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0], 0);
  EXPECT_EQ(selected[1], 1);
  EXPECT_EQ(scheduler.shard_state()[1].deferred_cycles, 0);
}

TEST(RelearnSchedulerTest, DecisionsAreDeterministic) {
  SchedulerOptions options;
  options.warm_budget_per_cycle = 2;
  options.cold_budget_per_cycle = 1;
  RelearnScheduler a(options, 8);
  RelearnScheduler b(options, 8);
  std::vector<ShardSchedInput> inputs = WarmInputs(8);
  for (size_t s = 0; s < inputs.size(); ++s) {
    inputs[s].traffic = static_cast<int64_t>((s * 37) % 11);
    inputs[s].has_model = s % 3 != 0;
  }
  for (int64_t cycle = 1; cycle <= 20; ++cycle) {
    EXPECT_EQ(a.DecideCycle(cycle, inputs), b.DecideCycle(cycle, inputs))
        << "cycle " << cycle;
  }
  // Equal priorities (identical inputs per shard) break ties by shard
  // id: a fresh scheduler over uniform inputs picks the lowest ids.
  RelearnScheduler ties(options, 4);
  const std::vector<int32_t> selected =
      ties.DecideCycle(1, WarmInputs(4));
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0], 0);
  EXPECT_EQ(selected[1], 1);
}

TEST(RelearnSchedulerTest, NoteFlushResetsAllBookkeeping) {
  SchedulerOptions options;
  options.warm_budget_per_cycle = 1;
  RelearnScheduler scheduler(options, 3);
  std::vector<ShardSchedInput> inputs = WarmInputs(3);
  inputs[0].traffic = 9;
  (void)scheduler.DecideCycle(1, inputs);
  scheduler.NoteFlush(2);
  for (const ShardSchedState& st : scheduler.shard_state()) {
    EXPECT_EQ(st.pending, 0);
    EXPECT_EQ(st.deferred_cycles, 0);
    EXPECT_DOUBLE_EQ(st.priority, 0.0);
    EXPECT_GE(st.selections, 1);  // every pending shard was covered
  }
}

/// Replays `chunks` through a live service with no query traffic and
/// returns its snapshots plus (optionally) stats.
std::vector<FusionSnapshotPtr> RunScheduledService(
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

/// The schedule the default (unlimited-budget) policy must produce,
/// computed from the batches alone: at every K-th batch, every shard
/// with pending data it can fit (it has observations) relearns, in shard
/// order; the drain flush after the last batch relearns the rest.
/// Truth-only shards stay pending until observations arrive.
std::vector<std::pair<int64_t, int32_t>> ExpectedUnlimitedSchedule(
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
    FusionServiceOptions options;  // default budgets: unlimited
    options.relearn_every_batches = every;
    options.scheduler.record_schedule = true;
    auto service = FusionService::Create(dataset.num_sources(),
                                         dataset.num_objects(),
                                         dataset.num_values(), options,
                                         dataset.features())
                       .ValueOrDie();
    for (const ObservationBatch& batch : batches) {
      SLIMFAST_CHECK_OK(service->Submit(batch));
    }
    SLIMFAST_CHECK_OK(service->Drain());
    const std::vector<FusionSnapshotPtr> live = service->AllSnapshots();
    std::vector<std::pair<int64_t, int32_t>> recorded;
    for (const RelearnEvent& event : service->RelearnSchedule()) {
      recorded.emplace_back(event.batch_index, event.shard);
    }
    service->Stop();

    // Within a cycle the scheduler drains in priority order; the set of
    // relearned shards per cycle is what the policy fixes.
    std::sort(recorded.begin(), recorded.end());
    const std::vector<std::pair<int64_t, int32_t>> expected =
        ExpectedUnlimitedSchedule(batches, options.num_shards, every);
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(recorded, expected) << "relearn every " << every;

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

TEST(SchedulerServiceTest, ZeroTrafficRunMatchesTheOfflineOracle) {
  const Dataset dataset =
      MakePlantedDataset({0.95, 0.85, 0.8, 0.7}, 60, 0.6, 11);
  const std::vector<ObservationBatch> chunks =
      ChunkDatasetForReplay(dataset, 9);
  // The contract must hold across budget shapes, including unlimited
  // (0) budgets and a tight 1/1 configuration that defers heavily.
  struct Config {
    int32_t warm, cold, max_defer;
  };
  for (const Config& config :
       {Config{2, 1, 4}, Config{1, 1, 2}, Config{0, 0, 3}}) {
    FusionServiceOptions options;
    options.num_shards = 5;
    options.relearn_every_batches = 1;
    options.scheduler.warm_budget_per_cycle = config.warm;
    options.scheduler.cold_budget_per_cycle = config.cold;
    options.scheduler.max_deferred_cycles = config.max_defer;
    const std::vector<FusionSnapshotPtr> live =
        RunScheduledService(dataset, options, chunks);
    const std::vector<FusionSnapshotPtr> offline =
        OfflineShardedReplay(dataset.num_sources(), dataset.num_objects(),
                             dataset.num_values(), options, chunks,
                             dataset.features())
            .ValueOrDie();
    ASSERT_EQ(live.size(), offline.size());
    for (size_t s = 0; s < live.size(); ++s) {
      EXPECT_TRUE(*live[s] == *offline[s])
          << "warm=" << config.warm << " cold=" << config.cold
          << " defer=" << config.max_defer << " shard " << s;
    }
  }
}

TEST(SchedulerServiceTest, TrafficShapedRunMatchesItsRecordedSchedule) {
  const Dataset dataset =
      MakePlantedDataset({0.9, 0.85, 0.75}, 48, 0.7, 5);
  const std::vector<ObservationBatch> chunks =
      ChunkDatasetForReplay(dataset, 8);
  FusionServiceOptions options;
  options.num_shards = 4;
  options.relearn_every_batches = 1;
  options.scheduler.warm_budget_per_cycle = 1;
  options.scheduler.cold_budget_per_cycle = 1;
  options.scheduler.record_schedule = true;
  auto service = FusionService::Create(dataset.num_sources(),
                                       dataset.num_objects(),
                                       dataset.num_values(), options,
                                       dataset.features())
                     .ValueOrDie();
  // Interleave skewed query traffic with ingest so the scheduler's
  // decisions genuinely depend on the live traffic signal.
  for (const ObservationBatch& chunk : chunks) {
    SLIMFAST_CHECK_OK(service->Submit(chunk));
    SLIMFAST_CHECK_OK(service->Drain());
    for (int i = 0; i < 200; ++i) (void)service->Query(0);
    for (int i = 0; i < 10; ++i) {
      (void)service->Query(i % dataset.num_objects());
    }
  }
  const std::vector<RelearnEvent> schedule = service->RelearnSchedule();
  EXPECT_FALSE(schedule.empty());
  const std::vector<FusionSnapshotPtr> live = service->AllSnapshots();
  service->Stop();

  const std::vector<FusionSnapshotPtr> offline =
      OfflineReplayWithSchedule(dataset.num_sources(),
                                dataset.num_objects(),
                                dataset.num_values(), options, chunks,
                                schedule, dataset.features())
          .ValueOrDie();
  ASSERT_EQ(live.size(), offline.size());
  for (size_t s = 0; s < live.size(); ++s) {
    EXPECT_TRUE(*live[s] == *offline[s]) << "shard " << s;
  }
}

TEST(SchedulerServiceTest, BacklogWatermarkShedsWithRetryHint) {
  const Dataset dataset = MakePlantedDataset({0.9, 0.8}, 12, 0.8, 3);
  FusionServiceOptions options;
  options.num_shards = 2;
  options.relearn_every_batches = 1;
  options.scheduler.shed_backlog_watermark = 1;
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

  const SchedulerInspection sched = service->SchedStats();
  // Admission works with the default unlimited budgets.
  EXPECT_EQ(sched.warm_budget, 0);
  EXPECT_EQ(sched.cold_budget, 0);
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

TEST(SchedulerServiceTest, SchedStatsExportsTheConfiguredPolicy) {
  const Dataset dataset = MakePlantedDataset({0.9, 0.8}, 12, 0.8, 3);
  FusionServiceOptions options;
  options.num_shards = 3;
  options.relearn_every_batches = 1;
  options.scheduler.warm_budget_per_cycle = 7;
  options.scheduler.cold_budget_per_cycle = 3;
  options.scheduler.max_deferred_cycles = 9;
  auto service = FusionService::Create(dataset.num_sources(),
                                       dataset.num_objects(),
                                       dataset.num_values(), options,
                                       dataset.features())
                     .ValueOrDie();
  const std::vector<ObservationBatch> chunks =
      ChunkDatasetForReplay(dataset, 3);
  for (const ObservationBatch& chunk : chunks) {
    SLIMFAST_CHECK_OK(service->Submit(chunk));
  }
  SLIMFAST_CHECK_OK(service->Drain());
  const SchedulerInspection sched = service->SchedStats();
  EXPECT_EQ(sched.warm_budget, 7);
  EXPECT_EQ(sched.cold_budget, 3);
  EXPECT_EQ(sched.max_deferred_cycles, 9);
  EXPECT_GE(sched.cycles, 1);
  EXPECT_EQ(sched.shards.size(), 3u);
  EXPECT_GT(sched.queue_capacity, 0);
  int64_t selections = 0;
  for (const ShardSchedState& st : sched.shards) {
    selections += st.selections;
  }
  EXPECT_GT(selections, 0);
  service->Stop();
}

TEST(SkewedLoadgenTest, ScenarioRunsVerifiesAndSheds) {
  const Dataset dataset =
      MakePlantedDataset({0.95, 0.85, 0.8, 0.7}, 64, 0.6, 17);
  SkewedLoadgenOptions options;
  options.num_shards = 4;
  options.num_chunks = 4;
  options.reader_threads = 2;
  options.writer_pause_ms = 2;
  options.min_queries_per_chunk = 50;
  options.seed = 17;
  options.verify = true;
  // Back-to-back unlimited + budgeted phases in one process: the readers
  // of phase 1 must be fully joined before phase 2's service spins up (the
  // teardown-race regression this test pins under TSan).
  const SkewedLoadgenReport report =
      RunSkewedLoadgen(dataset, options).ValueOrDie();
  EXPECT_GE(report.hot_shard, 0);
  EXPECT_LT(report.hot_shard, options.num_shards);
  EXPECT_GT(report.hot_shard_mass, 1.0 / options.num_shards);
  EXPECT_GT(report.flat.total_queries, 0);
  EXPECT_GT(report.sched.total_queries, 0);
  EXPECT_GT(report.flat.hot_staleness.count, 0);
  EXPECT_GT(report.sched.hot_staleness.count, 0);
  EXPECT_GT(report.flat.relearns, 0);
  EXPECT_GT(report.sched.relearns, 0);
  // The determinism contract held for both policies (the gate itself is
  // a perf property, asserted by the loadgen binary, not unit tests).
  EXPECT_TRUE(report.flat.verify_ran);
  EXPECT_TRUE(report.flat.verified);
  EXPECT_TRUE(report.sched.verify_ran);
  EXPECT_TRUE(report.sched.verified);
  // The admission exercise deterministically shed exactly one batch.
  EXPECT_EQ(report.admission_sheds, 1);
  EXPECT_GE(report.shed_retry_hint_ms, 1);
}

TEST(SkewedLoadgenTest, RejectsDegenerateConfigs) {
  const Dataset dataset = MakePlantedDataset({0.9, 0.8}, 16, 0.8, 3);
  SkewedLoadgenOptions options;
  options.num_shards = 1;
  EXPECT_FALSE(RunSkewedLoadgen(dataset, options).ok());
  options.num_shards = 4;
  options.zipf_exponent = 0.0;
  EXPECT_FALSE(RunSkewedLoadgen(dataset, options).ok());
  options.zipf_exponent = 1.1;
  options.num_chunks = 0;
  EXPECT_FALSE(RunSkewedLoadgen(dataset, options).ok());
  options.num_chunks = 2;
  options.reader_threads = 0;
  EXPECT_FALSE(RunSkewedLoadgen(dataset, options).ok());
}

}  // namespace
}  // namespace slimfast

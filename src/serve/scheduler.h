#ifndef SLIMFAST_SERVE_SCHEDULER_H_
#define SLIMFAST_SERVE_SCHEDULER_H_

#include <cstdint>
#include <vector>

namespace slimfast {

/// Policy knobs of the relearn scheduler (and of ingest admission
/// control).
///
/// Every every-K boundary is a *decision cycle*: shards are ranked by
/// priority = (1 + traffic) x staleness x pending and the top ones
/// relearn, split across two queue levels — a warm queue for shards that
/// already have a model (cheap warm-started relearns) and a cold queue
/// for first-fit shards (expensive from-scratch fits) — so one cold
/// shard's initial fit never blocks a hot shard's warm refresh. With the
/// default unlimited budgets every shard with pending data relearns at
/// every cycle. Drain/Stop/recovery flushes relearn everything pending
/// regardless of budget.
struct SchedulerOptions {
  /// Most *warm* shards (has_model) relearned per decision cycle.
  /// 0 = unlimited (priority ordering still applies to the log).
  int32_t warm_budget_per_cycle = 0;
  /// Most *cold* (first-fit) shards relearned per decision cycle.
  /// 0 = unlimited.
  int32_t cold_budget_per_cycle = 0;
  /// A shard with pending data that lost `max_deferred_cycles`
  /// consecutive decisions is forced into the next cycle regardless of
  /// budget — the staleness bound of the policy, in cycles.
  int32_t max_deferred_cycles = 4;
  /// Record every executed relearn as a (batch_index, shard) event so
  /// the run can be re-verified against OfflineReplayWithSchedule.
  /// Off by default: long-lived servers should not grow an unbounded
  /// log.
  bool record_schedule = false;

  // --- Admission control (independent of the relearn budgets) ----------

  /// Shed ingest once the queue holds >= this fraction of its capacity
  /// (0 disables the queue watermark). Shedding replies ERR BUSY with a
  /// retry hint instead of blocking the producer.
  double shed_queue_watermark = 0.0;
  /// Shed ingest once the relearn backlog (sum of per-shard pending
  /// batches) reaches this many batches (0 disables).
  int64_t shed_backlog_watermark = 0;

  bool admission_enabled() const {
    return shed_queue_watermark > 0.0 || shed_backlog_watermark > 0;
  }
};

/// Scheduler inputs for one shard at one decision cycle. Every field is
/// a pure function of the ingest stream except `traffic`, which the
/// live service samples from its per-shard query counters (the offline
/// oracle passes 0 — see the determinism note on RelearnScheduler).
struct ShardSchedInput {
  /// Batches ingested since the shard's last relearn.
  int32_t pending = 0;
  /// The shard has observations to fit against (truth-only shards
  /// cannot relearn yet; selecting one only republishes its evidence).
  bool can_fit = false;
  /// The shard has a fitted model — warm queue; otherwise cold queue.
  bool has_model = false;
  /// Queries routed to the shard since the previous decision cycle.
  int64_t traffic = 0;
};

/// Per-shard scheduler state exported for the SCHED verb and the
/// priority gauges. `priority`/`traffic` are the values of the most
/// recent decision cycle.
struct ShardSchedState {
  double priority = 0.0;
  int32_t pending = 0;
  int64_t traffic = 0;
  /// Consecutive decision cycles this shard had pending data but was
  /// not selected.
  int32_t deferred_cycles = 0;
  /// Times the scheduler (or a flush) covered this shard.
  int64_t selections = 0;
};

/// One relearn the driver actually executed: shard `shard` relearned
/// right after the `batch_index`-th applied batch. The sequence of
/// these events *is* the relearn schedule of a run, and replaying it
/// through offline per-shard sessions (OfflineReplayWithSchedule)
/// reproduces the run's snapshots bit for bit.
struct RelearnEvent {
  int64_t batch_index = 0;
  int32_t shard = 0;
};

/// The relearn decision engine. Deterministic by construction: a
/// decision is a pure function of (batch index, per-shard inputs,
/// options, the scheduler's own bookkeeping), with ties broken by shard
/// id. Both the live driver and the offline oracle run this same class,
/// so for a fixed batch schedule and policy config the relearn sequence
/// is identical — the live side feeds real query-traffic samples into
/// `ShardSchedInput::traffic`, the offline side feeds 0, which is why a
/// run *with* traffic is verified against its *recorded* schedule
/// (OfflineReplayWithSchedule) while a traffic-free run matches the
/// zero-traffic simulation directly.
class RelearnScheduler {
 public:
  RelearnScheduler(SchedulerOptions options, int32_t num_shards);

  /// Ranks shards with pending data by
  ///   priority = (1 + traffic) * staleness_cycles * pending
  /// (staleness_cycles = batches since the shard's last relearn,
  /// measured at `batch_index`) and returns the shard ids to relearn
  /// now, ordered warm queue first, each queue by descending priority,
  /// shard id as the tie break. Budget-losers accrue deferral; shards
  /// deferred past max_deferred_cycles are appended regardless of
  /// budget. Updates the exported per-shard state.
  std::vector<int32_t> DecideCycle(
      int64_t batch_index, const std::vector<ShardSchedInput>& inputs);

  /// A flush (drain, stop, recovery) relearned every pending shard
  /// outside the budget: reset all bookkeeping to "just relearned at
  /// `batch_index`".
  void NoteFlush(int64_t batch_index);

  /// Per-shard state as of the most recent decision (SCHED verb,
  /// priority gauges).
  const std::vector<ShardSchedState>& shard_state() const { return state_; }

  /// Decision cycles run so far.
  int64_t cycles() const { return cycles_; }

  const SchedulerOptions& options() const { return options_; }

 private:
  SchedulerOptions options_;
  /// Batch index of each shard's most recent relearn (0 = never).
  std::vector<int64_t> last_relearn_batch_;
  std::vector<ShardSchedState> state_;
  int64_t cycles_ = 0;
};

}  // namespace slimfast

#endif  // SLIMFAST_SERVE_SCHEDULER_H_

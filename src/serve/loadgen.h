#ifndef SLIMFAST_SERVE_LOADGEN_H_
#define SLIMFAST_SERVE_LOADGEN_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "exec/options.h"
#include "serve/scheduler.h"
#include "util/result.h"

namespace slimfast {

/// Configuration of one load-generation run (see RunLoadgen).
struct LoadgenOptions {
  /// Shards of the FusionService under test.
  int32_t num_shards = 4;
  /// Ingest batches the dataset is replayed as.
  int32_t num_chunks = 24;
  /// Concurrent query threads hammering the service during ingest.
  int32_t reader_threads = 4;
  /// Minimum queries per reader: readers keep querying past the end of
  /// ingest until they reach it, so short ingests still produce a
  /// meaningful latency sample.
  int64_t min_queries_per_reader = 2000;
  /// Service relearn policy (every K batches).
  int32_t relearn_every_batches = 2;
  /// Seed for the shard sessions and the readers' object streams.
  uint64_t seed = 42;
  /// Cross-check the final service snapshots against OfflineShardedReplay
  /// (the sharded-replay determinism contract) after the run.
  bool verify = true;
  /// After the mixed run, measure the observability layer's query-path
  /// overhead: single-threaded calibration rounds alternating metrics
  /// off/on, gated at p99 (see LoadgenReport::overhead_gate_passed).
  bool measure_overhead = true;
  /// Queries per calibration round (overhead measurement).
  int64_t overhead_queries_per_round = 20000;
  /// Thread budget for the service's shard fan-out.
  ExecOptions exec;
};

/// Nearest-rank latency percentiles of a sample.
struct LatencySummary {
  /// Number of measurements summarized.
  int64_t count = 0;
  /// Median (nearest-rank), in the sample's unit.
  double p50 = 0.0;
  /// 95th percentile.
  double p95 = 0.0;
  /// 99th percentile.
  double p99 = 0.0;
  /// Largest sample.
  double max = 0.0;
};

/// Nearest-rank percentile summary of `*samples` (sorted in place; an
/// empty sample yields all zeros). Nearest-rank keeps every reported
/// number an actually observed latency.
LatencySummary SummarizeLatencies(std::vector<double>* samples);

/// What one loadgen run measured (see RunLoadgen).
struct LoadgenReport {
  /// Echo of the workload shape.
  int32_t num_shards = 0;
  /// See num_shards.
  int32_t num_chunks = 0;
  /// See num_shards.
  int32_t reader_threads = 0;
  /// Observations replayed into the service.
  int64_t observations = 0;
  /// Truth labels replayed into the service.
  int64_t truths = 0;
  /// Wall-clock of submit-first-batch → drain-complete.
  double ingest_wall_seconds = 0.0;
  /// Wall-clock of the whole mixed run (readers start → readers joined).
  double run_wall_seconds = 0.0;
  /// Queries issued across all readers (exact count).
  int64_t total_queries = 0;
  /// total_queries / run_wall_seconds.
  double qps = 0.0;
  /// Per-query latency percentiles, in seconds, over *every* query of
  /// the run: each reader records into a bounded log-scale histogram
  /// (obs::LatencyHistogram — fixed memory at any QPS, exact
  /// nearest-rank bucket percentiles) and the per-reader histograms are
  /// merged deterministically (bucket-wise sums commute, so reader join
  /// order cannot change the reported numbers).
  LatencySummary query_latency;
  /// Queries that returned an out-of-universe value (must be 0).
  int64_t invalid_reads = 0;
  /// Fraction of truth-labeled observed objects the final merged
  /// predictions got right (an end-to-end sanity metric, not a held-out
  /// evaluation — loadgen replays every truth label).
  double accuracy = 0.0;
  /// Relearns / publishes the service performed.
  int64_t relearns = 0;
  /// See relearns.
  int64_t publishes = 0;
  /// True when the final per-shard snapshots matched the offline replay
  /// bit for bit (always true when options.verify was off — check
  /// `verify_ran`).
  bool verified = false;
  /// Whether the offline cross-check ran.
  bool verify_ran = false;

  // --- Observability overhead gate (when options.measure_overhead) ------

  /// Whether the overhead calibration ran.
  bool overhead_ran = false;
  /// Single-threaded query p99 (seconds) with instrumentation disabled:
  /// min over the alternating calibration rounds, exact sample sort
  /// (not histogram buckets, so quantization cannot eat the margin).
  double overhead_base_p99_seconds = 0.0;
  /// Same measurement with instrumentation enabled.
  double overhead_obs_p99_seconds = 0.0;
  /// True when the instrumented p99 stayed within 5% of baseline (with
  /// a 100ns absolute floor so timer noise at ~0.1us latencies cannot
  /// fail the gate spuriously).
  bool overhead_gate_passed = true;
};

/// Replays `dataset` through a FusionService as a mixed ingest/query
/// workload: one writer streams the dataset in `num_chunks` batches
/// (blocking Submit, final Drain) while `reader_threads` threads hammer
/// wait-free queries against random objects, timing every query. After
/// the run the final snapshots are (optionally) cross-checked against
/// the offline sharded replay — the determinism contract — and the
/// merged predictions are scored against the dataset truth.
Result<LoadgenReport> RunLoadgen(const Dataset& dataset,
                                 const LoadgenOptions& options);

/// The skewed scenario's default budgeted policy: warm 2 / cold 1 /
/// max-defer 4, tight enough that the budgets bind on a dozen shards.
inline SchedulerOptions BudgetedPhaseDefaults() {
  SchedulerOptions policy;
  policy.warm_budget_per_cycle = 2;
  policy.cold_budget_per_cycle = 1;
  policy.max_deferred_cycles = 4;
  return policy;
}

/// Configuration of the skewed (Zipfian) scheduler comparison scenario
/// (see RunSkewedLoadgen).
struct SkewedLoadgenOptions {
  /// Shards of the services under test. More shards widen the gap
  /// between unlimited budgets (every pending shard relearns per
  /// trigger) and the budgeted scheduler (a budget's worth).
  int32_t num_shards = 12;
  /// Ingest batches the dataset is replayed as (each one is a relearn
  /// trigger when relearn_every_batches == 1).
  int32_t num_chunks = 16;
  /// Concurrent Zipfian query threads. Their queries feed the
  /// scheduler's per-shard traffic counters.
  int32_t reader_threads = 2;
  /// Zipf exponent of the readers' object popularity (1.0–1.5 is the
  /// usual skew range; higher concentrates more mass on the hot shard).
  double zipf_exponent = 1.1;
  /// Relearn trigger period, in batches, for both phases.
  int32_t relearn_every_batches = 1;
  /// Pause between writer chunks, in milliseconds. The pacing gives the
  /// single-core readers guaranteed slices of the ingest window (their
  /// staleness samples cover it) and lets relearn cycles land between
  /// batches.
  int32_t writer_pause_ms = 5;
  /// After each chunk the writer additionally waits (bounded, ~1s) until
  /// the readers issued this many further queries, so a starved reader
  /// pool on a loaded box cannot leave a phase without staleness
  /// samples. 0 disables the wait.
  int64_t min_queries_per_chunk = 200;
  /// Seed for the shard sessions and the readers' Zipf streams.
  uint64_t seed = 42;
  /// Cross-check both phases against their offline oracles: the
  /// unlimited phase against OfflineShardedReplay, the budgeted phase
  /// against OfflineReplayWithSchedule over its recorded relearn
  /// schedule.
  bool verify = true;
  /// Budgeted phase policy. `record_schedule` is forced on by the
  /// runner and the watermarks off; budgets are taken as given.
  SchedulerOptions scheduler = BudgetedPhaseDefaults();
  /// Thread budget for the services' shard fan-out (equal for both
  /// phases — the comparison is at equal CPU).
  ExecOptions exec;
};

/// What one policy phase (unlimited or budgeted) of the skewed scenario
/// measured.
struct PolicyPhaseReport {
  /// Wall-clock of submit-first-chunk → drain-complete.
  double wall_seconds = 0.0;
  /// Queries issued across all readers during the ingest window.
  int64_t total_queries = 0;
  /// The subset of total_queries that routed to the hot shard.
  int64_t hot_queries = 0;
  /// Relearns the service performed.
  int64_t relearns = 0;
  /// Hot-shard snapshot staleness percentiles, in seconds: every reader
  /// query samples the age of the hot shard's oldest unabsorbed batch
  /// (0 when the shard is fully absorbed), so the percentiles describe
  /// how stale the hot shard's served snapshot was across the ingest
  /// window. Wall-clock and therefore load-dependent — informational
  /// color, not the gate (see hot_version_lag_mean).
  LatencySummary hot_staleness;
  /// Mean hot-shard *version lag* over the phase's executed relearn
  /// cycles, derived from the recorded relearn schedule: after each
  /// cycle, how many cycles have passed since the hot shard was last
  /// relearned (0 when the cycle included it). A pure function of the
  /// policy's decisions at its opportunity points — deterministic on
  /// any box at any load — which is why the scenario gate compares
  /// this, not the wall-clock staleness. Unlimited budgets score 0 by
  /// construction; a scheduler deferring the hot shard accumulates lag.
  double hot_version_lag_mean = 0.0;
  /// Largest per-cycle hot-shard version lag (same units as the mean).
  /// The scheduler's deferral bound caps this at max_deferred_cycles —
  /// the invariant the scenario gate checks.
  double hot_version_lag_max = 0.0;
  /// Whether the phase's offline cross-check ran / passed.
  bool verify_ran = false;
  /// See verify_ran.
  bool verified = false;
};

/// What RunSkewedLoadgen measured (see the per-field docs).
struct SkewedLoadgenReport {
  /// Shard receiving the largest share of the Zipfian query mass.
  int32_t hot_shard = 0;
  /// That shard's share of the query mass, in [0, 1].
  double hot_shard_mass = 0.0;
  /// The unlimited-budget phase (every pending shard relearns at every
  /// trigger — the default service configuration).
  PolicyPhaseReport flat;
  /// The budgeted phase (traffic-aware budgeted relearns).
  PolicyPhaseReport sched;
  /// Batches shed by the deterministic admission-control exercise.
  int64_t admission_sheds = 0;
  /// The retry hint (ms) the last shed reply carried.
  int64_t shed_retry_hint_ms = 0;
  /// The scenario's headline gate, fully deterministic (invariants of
  /// the policies, independent of box load): the unlimited phase's hot
  /// version lag is 0, the budgeted phase's max hot version lag stayed
  /// within its deferral bound (max_deferred_cycles), and the budgeted
  /// phase performed strictly fewer relearns. All derived from the recorded
  /// relearn schedules.
  bool gate_passed = false;
};

/// The scheduler's proof-of-value scenario: replays `dataset` twice with
/// an identical chunk schedule, pacing, and thread budget — once with
/// unlimited relearn budgets, once under the budgeted scheduler —
/// while Zipfian readers concentrate query traffic on one hot shard and
/// sample that shard's snapshot staleness on every query. At equal CPU
/// the budgets must keep the hot shard fresh for less work: the
/// report's `gate_passed` asserts unlimited hot version lag == 0,
/// budgeted max hot version lag within the deferral bound, and strictly
/// fewer budgeted relearns — all derived from the recorded relearn
/// schedules, so the gate cannot flake under load (wall-clock staleness
/// percentiles are reported as color). Both phases are cross-checked
/// against their offline replay oracles (the determinism contract), and
/// a final deterministic admission-control exercise drives a COMMIT-path
/// shed to prove the ERR BUSY backpressure path end to end.
Result<SkewedLoadgenReport> RunSkewedLoadgen(
    const Dataset& dataset, const SkewedLoadgenOptions& options);

}  // namespace slimfast

#endif  // SLIMFAST_SERVE_LOADGEN_H_

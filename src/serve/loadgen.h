#ifndef SLIMFAST_SERVE_LOADGEN_H_
#define SLIMFAST_SERVE_LOADGEN_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "exec/options.h"
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

}  // namespace slimfast

#endif  // SLIMFAST_SERVE_LOADGEN_H_

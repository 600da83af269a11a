#include "serve/loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <utility>

#include "data/observation_store.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "serve/fusion_service.h"
#include "serve/router.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace slimfast {

namespace {

double NearestRank(const std::vector<double>& sorted, double quantile) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(
      std::ceil(quantile * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

/// One single-threaded calibration round: `queries` timed queries,
/// exact p99 by sample sort. Used only by the overhead gate, where
/// histogram bucket quantization (~6%) would swamp the 5% margin.
double CalibrationP99(FusionService* service, int32_t num_objects,
                      uint64_t seed, int64_t queries) {
  Rng rng(SplitMix64(seed));
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(queries));
  for (int64_t i = 0; i < queries; ++i) {
    const ObjectId object =
        num_objects > 0 ? static_cast<ObjectId>(rng.UniformInt(num_objects))
                        : 0;
    Stopwatch watch;
    (void)service->Query(object);
    samples.push_back(watch.ElapsedSeconds());
  }
  std::sort(samples.begin(), samples.end());
  return NearestRank(samples, 0.99);
}

/// Scoped stop-and-join for a pool of reader threads. The readers
/// dereference the service under test, so a reader leaked past the
/// service's Stop()/destruction is a use-after-free; binding the join to
/// a scope guarantees that *every* exit path of a run — including early
/// error returns added later, and back-to-back scenario phases in one
/// process — stops and joins the pool before the service can go away.
class ScopedReaders {
 public:
  /// `stop` is the flag the reader loops poll (acquire); it is set
  /// (release) before joining.
  explicit ScopedReaders(std::atomic<bool>* stop) : stop_(stop) {}
  ScopedReaders(const ScopedReaders&) = delete;
  ScopedReaders& operator=(const ScopedReaders&) = delete;
  ~ScopedReaders() { StopAndJoin(); }

  void Add(std::thread reader) { readers_.push_back(std::move(reader)); }

  /// Idempotent: signals the stop flag and joins every reader.
  void StopAndJoin() {
    stop_->store(true, std::memory_order_release);
    for (std::thread& reader : readers_) {
      if (reader.joinable()) reader.join();
    }
  }

 private:
  std::atomic<bool>* stop_;
  std::vector<std::thread> readers_;
};

/// Zipf(s) popularity over object ids: object `o` is the (o+1)-th most
/// popular with mass proportional to 1/(o+1)^s. Sampling is a binary
/// search over the precomputed CDF.
class ZipfSampler {
 public:
  ZipfSampler(int32_t num_objects, double exponent)
      : cdf_(static_cast<size_t>(num_objects)) {
    double total = 0.0;
    for (size_t i = 0; i < cdf_.size(); ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  ObjectId Sample(Rng* rng) const {
    const double u = rng->Uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) return static_cast<ObjectId>(cdf_.size() - 1);
    return static_cast<ObjectId>(it - cdf_.begin());
  }

  /// Probability mass of object `o`.
  double Pmf(int32_t o) const {
    const size_t i = static_cast<size_t>(o);
    return i == 0 ? cdf_[0] : cdf_[i] - cdf_[i - 1];
  }

 private:
  std::vector<double> cdf_;
};

/// One policy phase of the skewed scenario: replay `chunks` under
/// `policy` while Zipfian readers query and sample the hot shard's
/// staleness, then cross-check against the phase's offline oracle.
Result<PolicyPhaseReport> RunPolicyPhase(
    const Dataset& dataset, const std::vector<ObservationBatch>& chunks,
    const SkewedLoadgenOptions& options, const SchedulerOptions& policy,
    const ZipfSampler& zipf, const ShardRouter& router,
    int32_t hot_shard) {
  FusionServiceOptions service_options;
  service_options.num_shards = options.num_shards;
  service_options.relearn_every_batches = options.relearn_every_batches;
  service_options.session.seed = options.seed;
  service_options.shard_exec = options.exec;
  service_options.scheduler = policy;
  // Both phases record their relearn schedule (recording is just a
  // driver-side log append): the deterministic version-lag gate is
  // computed from it, for the budgeted phase and the unlimited one alike.
  service_options.scheduler.record_schedule = true;
  SLIMFAST_ASSIGN_OR_RETURN(
      std::unique_ptr<FusionService> service,
      FusionService::Create(dataset.num_sources(), dataset.num_objects(),
                            dataset.num_values(), service_options,
                            dataset.features()));

  std::atomic<bool> stop{false};
  std::atomic<int64_t> total_queries{0};
  std::vector<std::unique_ptr<obs::LatencyHistogram>> staleness;
  staleness.reserve(static_cast<size_t>(options.reader_threads));
  for (int32_t r = 0; r < options.reader_threads; ++r) {
    staleness.push_back(std::make_unique<obs::LatencyHistogram>());
  }
  std::vector<int64_t> hot_counts(
      static_cast<size_t>(options.reader_threads), 0);
  ScopedReaders readers(&stop);
  for (int32_t r = 0; r < options.reader_threads; ++r) {
    readers.Add(std::thread([&, r] {
      Rng rng(SplitMix64(options.seed ^
                         (0x21bf0b5du + static_cast<uint64_t>(r))));
      obs::LatencyHistogram& my_staleness =
          *staleness[static_cast<size_t>(r)];
      int64_t hot = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const ObjectId object = zipf.Sample(&rng);
        // The query itself is the scheduler's traffic signal.
        (void)service->Query(object);
        if (router.ShardOf(object) == hot_shard) ++hot;
        // Staleness sample: age of the hot shard's oldest unabsorbed
        // batch at this instant (0 = fully absorbed). Sampling stops
        // with ingest (the stop flag), so post-drain zeros cannot
        // dilute the percentiles.
        my_staleness.Record(service->ShardPendingAgeNanos(hot_shard));
        total_queries.fetch_add(1, std::memory_order_relaxed);
      }
      hot_counts[static_cast<size_t>(r)] = hot;
    }));
  }

  // Writer: paced replay. The pause plus the bounded wait-for-reader-
  // progress guarantee the readers observe every inter-chunk window
  // even on a single-core box.
  Stopwatch wall_watch;
  Status writer_status = Status::OK();
  for (const ObservationBatch& chunk : chunks) {
    writer_status = service->Submit(chunk);
    if (!writer_status.ok()) break;
    if (options.writer_pause_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.writer_pause_ms));
    }
    const int64_t target =
        total_queries.load(std::memory_order_relaxed) +
        options.min_queries_per_chunk;
    Stopwatch pause_watch;
    while (options.min_queries_per_chunk > 0 &&
           total_queries.load(std::memory_order_relaxed) < target &&
           pause_watch.ElapsedSeconds() < 1.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  if (writer_status.ok()) writer_status = service->Drain();
  PolicyPhaseReport report;
  report.wall_seconds = wall_watch.ElapsedSeconds();
  readers.StopAndJoin();
  SLIMFAST_RETURN_NOT_OK(writer_status);

  obs::LatencyHistogram merged;
  for (const auto& reader : staleness) merged.Merge(*reader);
  report.total_queries = total_queries.load();
  for (int64_t hot : hot_counts) report.hot_queries += hot;
  report.hot_staleness.count = merged.Count();
  report.hot_staleness.p50 =
      static_cast<double>(merged.PercentileNanos(0.50)) * 1e-9;
  report.hot_staleness.p95 =
      static_cast<double>(merged.PercentileNanos(0.95)) * 1e-9;
  report.hot_staleness.p99 =
      static_cast<double>(merged.PercentileNanos(0.99)) * 1e-9;
  report.hot_staleness.max =
      static_cast<double>(merged.MaxNanos()) * 1e-9;
  report.relearns = service->stats().relearns;

  // Deterministic freshness metric, derived from the recorded relearn
  // schedule instead of wall-clock sampling. The lag is measured at the
  // policy's *opportunity points* — the executed relearn cycles — not
  // at raw batch indices: after each cycle, how many cycles have now
  // passed since the hot shard was last relearned? Measuring at cycles
  // makes the number a pure function of the policy's decisions (a
  // loaded box that coalesces two paced batches into one driver group
  // moves the opportunity, which no policy could have exploited, so it
  // cannot skew the comparison). Unlimited budgets score 0.0 by
  // construction; a scheduler that defers the hot shard accumulates
  // lag at every cycle that skips it.
  {
    double lag_sum = 0.0;
    int64_t cycles = 0;
    double current_lag = 0.0;
    double max_lag = 0.0;
    int64_t cycle_batch = -1;
    bool hot_in_cycle = false;
    auto finish_cycle = [&] {
      if (cycle_batch < 0) return;
      current_lag = hot_in_cycle ? 0.0 : current_lag + 1.0;
      lag_sum += current_lag;
      max_lag = std::max(max_lag, current_lag);
      ++cycles;
    };
    for (const RelearnEvent& event : service->RelearnSchedule()) {
      if (event.batch_index != cycle_batch) {
        finish_cycle();
        cycle_batch = event.batch_index;
        hot_in_cycle = false;
      }
      if (event.shard == hot_shard) hot_in_cycle = true;
    }
    finish_cycle();
    report.hot_version_lag_mean =
        cycles == 0 ? 0.0 : lag_sum / static_cast<double>(cycles);
    report.hot_version_lag_max = max_lag;
  }

  if (options.verify) {
    report.verify_ran = true;
    std::vector<FusionSnapshotPtr> offline;
    if (policy.warm_budget_per_cycle > 0 ||
        policy.cold_budget_per_cycle > 0) {
      // A traffic-shaped (budgeted) run is verified against its
      // *recorded* schedule: the relearn sequence becomes a pure input.
      // Unlimited budgets ignore traffic, so the zero-traffic oracle
      // applies directly.
      SLIMFAST_ASSIGN_OR_RETURN(
          offline, OfflineReplayWithSchedule(
                       dataset.num_sources(), dataset.num_objects(),
                       dataset.num_values(), service_options, chunks,
                       service->RelearnSchedule(), dataset.features()));
    } else {
      SLIMFAST_ASSIGN_OR_RETURN(
          offline, OfflineShardedReplay(
                       dataset.num_sources(), dataset.num_objects(),
                       dataset.num_values(), service_options, chunks,
                       dataset.features()));
    }
    const std::vector<FusionSnapshotPtr> live = service->AllSnapshots();
    report.verified = live.size() == offline.size();
    for (size_t s = 0; report.verified && s < live.size(); ++s) {
      report.verified = live[s] != nullptr && offline[s] != nullptr &&
                        *live[s] == *offline[s];
    }
  }

  service->Stop();
  return report;
}

/// Deterministic admission-control exercise: a truth-only shard keeps a
/// permanent relearn backlog of 1, so with shed_backlog_watermark=1 the
/// very next guarded submit must shed with a retry hint — the COMMIT
/// ERR BUSY path, minus the protocol layer.
Status RunShedExercise(const Dataset& dataset,
                       const SkewedLoadgenOptions& options,
                       SkewedLoadgenReport* report) {
  FusionServiceOptions service_options;
  service_options.num_shards = 2;
  service_options.relearn_every_batches = 1;
  service_options.session.seed = options.seed;
  service_options.scheduler.shed_backlog_watermark = 1;
  SLIMFAST_ASSIGN_OR_RETURN(
      std::unique_ptr<FusionService> service,
      FusionService::Create(dataset.num_sources(), dataset.num_objects(),
                            dataset.num_values(), service_options,
                            dataset.features()));

  ObservationBatch truth_only;
  truth_only.truths.push_back(TruthLabel{0, 0});
  Status status = service->Submit(truth_only);
  if (status.ok()) status = service->Drain();
  if (!status.ok()) {
    service->Stop();
    return status;
  }

  ObservationBatch next;
  next.observations.push_back(Observation{0, 0, 0});
  int64_t retry_hint_ms = 0;
  status = service->SubmitWithBackpressure(std::move(next),
                                           &retry_hint_ms);
  const int64_t sheds = service->stats().sheds;
  service->Stop();
  if (!status.IsOutOfRange()) {
    return Status::Internal(
        "admission exercise did not shed (status: " + status.ToString() +
        ")");
  }
  report->admission_sheds = sheds;
  report->shed_retry_hint_ms = retry_hint_ms;
  return Status::OK();
}

}  // namespace

LatencySummary SummarizeLatencies(std::vector<double>* samples) {
  LatencySummary summary;
  if (samples == nullptr || samples->empty()) return summary;
  std::sort(samples->begin(), samples->end());
  summary.count = static_cast<int64_t>(samples->size());
  summary.p50 = NearestRank(*samples, 0.50);
  summary.p95 = NearestRank(*samples, 0.95);
  summary.p99 = NearestRank(*samples, 0.99);
  summary.max = samples->back();
  return summary;
}

Result<LoadgenReport> RunLoadgen(const Dataset& dataset,
                                 const LoadgenOptions& options) {
  if (options.num_chunks < 1) {
    return Status::InvalidArgument("num_chunks must be >= 1");
  }
  if (options.reader_threads < 1) {
    return Status::InvalidArgument("reader_threads must be >= 1");
  }

  const std::vector<ObservationBatch> chunks =
      ChunkDatasetForReplay(dataset, options.num_chunks);

  FusionServiceOptions service_options;
  service_options.num_shards = options.num_shards;
  service_options.relearn_every_batches = options.relearn_every_batches;
  service_options.session.seed = options.seed;
  service_options.shard_exec = options.exec;
  SLIMFAST_ASSIGN_OR_RETURN(
      std::unique_ptr<FusionService> service,
      FusionService::Create(dataset.num_sources(), dataset.num_objects(),
                            dataset.num_values(), service_options,
                            dataset.features()));

  // --- Readers: hammer wait-free queries for the whole ingest window
  // (and past it, until each reader has a meaningful sample). ---
  const int32_t num_objects = dataset.num_objects();
  const int32_t num_values = dataset.num_values();
  std::atomic<bool> ingest_done{false};
  std::atomic<int64_t> invalid_reads{0};
  // Per-reader latency *histograms*: bounded log-scale buckets replace
  // the earlier sampling reservoirs, so every query of the run is in
  // the percentiles (exact nearest-rank over the bucket distribution at
  // any QPS, a few KB per reader) and the cross-reader merge is a
  // deterministic bucket-wise sum instead of a sample shuffle.
  std::vector<std::unique_ptr<obs::LatencyHistogram>> latencies;
  latencies.reserve(static_cast<size_t>(options.reader_threads));
  for (int32_t r = 0; r < options.reader_threads; ++r) {
    latencies.push_back(std::make_unique<obs::LatencyHistogram>());
  }
  std::vector<int64_t> query_counts(
      static_cast<size_t>(options.reader_threads), 0);
  // Scope-bound teardown: whatever exit path this function takes, the
  // readers are stopped and joined before `service` is destroyed.
  ScopedReaders readers(&ingest_done);
  Stopwatch run_watch;
  for (int32_t r = 0; r < options.reader_threads; ++r) {
    readers.Add(std::thread([&, r] {
      Rng rng(SplitMix64(options.seed ^
                         (0x7ea0e2u + static_cast<uint64_t>(r))));
      obs::LatencyHistogram& my_latencies =
          *latencies[static_cast<size_t>(r)];
      std::vector<double> probs;
      int64_t count = 0;
      while (!ingest_done.load(std::memory_order_acquire) ||
             count < options.min_queries_per_reader) {
        const ObjectId object =
            num_objects > 0
                ? static_cast<ObjectId>(rng.UniformInt(num_objects))
                : 0;
        Stopwatch query_watch;
        const ValueId value = service->Query(object);
        my_latencies.RecordSeconds(query_watch.ElapsedSeconds());
        if (value != kNoValue && (value < 0 || value >= num_values)) {
          invalid_reads.fetch_add(1, std::memory_order_relaxed);
        }
        // Exercise the consistent-snapshot read path too (untimed: the
        // latency series stays a single-operation metric).
        if ((count & 0x3f) == 0) {
          service->QueryPosterior(object, nullptr, &probs);
        }
        ++count;
      }
      query_counts[static_cast<size_t>(r)] = count;
    }));
  }

  // --- Writer: replay the dataset, then drain. Readers must be joined
  // before any return path, so the writer only records its status. ---
  Stopwatch ingest_watch;
  Status writer_status = Status::OK();
  for (const ObservationBatch& chunk : chunks) {
    writer_status = service->Submit(chunk);
    if (!writer_status.ok()) break;
  }
  if (writer_status.ok()) writer_status = service->Drain();
  const double ingest_wall = ingest_watch.ElapsedSeconds();
  readers.StopAndJoin();
  SLIMFAST_RETURN_NOT_OK(writer_status);
  const double run_wall = run_watch.ElapsedSeconds();

  // --- Report. ---
  LoadgenReport report;
  report.num_shards = service->num_shards();
  report.num_chunks = options.num_chunks;
  report.reader_threads = options.reader_threads;
  report.ingest_wall_seconds = ingest_wall;
  report.run_wall_seconds = run_wall;
  report.invalid_reads = invalid_reads.load();
  for (const ObservationBatch& chunk : chunks) {
    report.observations += static_cast<int64_t>(chunk.observations.size());
    report.truths += static_cast<int64_t>(chunk.truths.size());
  }

  obs::LatencyHistogram merged_latencies;
  for (const auto& reader : latencies) merged_latencies.Merge(*reader);
  for (int64_t count : query_counts) report.total_queries += count;
  report.query_latency.count = merged_latencies.Count();
  report.query_latency.p50 =
      static_cast<double>(merged_latencies.PercentileNanos(0.50)) * 1e-9;
  report.query_latency.p95 =
      static_cast<double>(merged_latencies.PercentileNanos(0.95)) * 1e-9;
  report.query_latency.p99 =
      static_cast<double>(merged_latencies.PercentileNanos(0.99)) * 1e-9;
  report.query_latency.max =
      static_cast<double>(merged_latencies.MaxNanos()) * 1e-9;
  report.qps = run_wall > 0.0
                   ? static_cast<double>(report.total_queries) / run_wall
                   : 0.0;

  const std::vector<ValueId> merged = service->MergedPredictions();
  int64_t labeled = 0;
  int64_t correct = 0;
  for (ObjectId o = 0; o < num_objects; ++o) {
    const ValueId truth = dataset.Truth(o);
    if (truth == kNoValue) continue;
    if (merged[static_cast<size_t>(o)] == kNoValue) continue;
    ++labeled;
    if (merged[static_cast<size_t>(o)] == truth) ++correct;
  }
  report.accuracy = labeled > 0 ? static_cast<double>(correct) /
                                      static_cast<double>(labeled)
                                : 0.0;

  const FusionServiceStats stats = service->stats();
  report.relearns = stats.relearns;
  report.publishes = stats.publishes;

  // --- Observability overhead gate: alternate metrics off/on over
  // single-threaded calibration rounds and compare exact p99s. Min of
  // rounds on both sides rejects one-off scheduler noise; the absolute
  // 100ns floor keeps timer granularity at ~0.1us latencies from
  // failing the gate without a real regression. ---
  if (options.measure_overhead && options.overhead_queries_per_round > 0) {
    report.overhead_ran = true;
    const bool was_enabled = obs::SetEnabledForTest(false);
    double base_p99 = 0.0;
    double obs_p99 = 0.0;
    for (int round = 0; round < 3; ++round) {
      obs::SetEnabledForTest(false);
      const double base = CalibrationP99(
          service.get(), num_objects, options.seed + 101 * round,
          options.overhead_queries_per_round);
      obs::SetEnabledForTest(true);
      const double with_obs = CalibrationP99(
          service.get(), num_objects, options.seed + 101 * round + 7,
          options.overhead_queries_per_round);
      base_p99 = round == 0 ? base : std::min(base_p99, base);
      obs_p99 = round == 0 ? with_obs : std::min(obs_p99, with_obs);
    }
    obs::SetEnabledForTest(was_enabled);
    report.overhead_base_p99_seconds = base_p99;
    report.overhead_obs_p99_seconds = obs_p99;
    report.overhead_gate_passed =
        obs_p99 <= std::max(1.05 * base_p99, base_p99 + 100e-9);
  }

  if (options.verify) {
    report.verify_ran = true;
    SLIMFAST_ASSIGN_OR_RETURN(
        std::vector<FusionSnapshotPtr> offline,
        OfflineShardedReplay(dataset.num_sources(), dataset.num_objects(),
                             dataset.num_values(), service_options, chunks,
                             dataset.features()));
    const std::vector<FusionSnapshotPtr> live = service->AllSnapshots();
    report.verified = live.size() == offline.size();
    for (size_t s = 0; report.verified && s < live.size(); ++s) {
      report.verified = live[s] != nullptr && offline[s] != nullptr &&
                        *live[s] == *offline[s];
    }
  }

  service->Stop();
  return report;
}

Result<SkewedLoadgenReport> RunSkewedLoadgen(
    const Dataset& dataset, const SkewedLoadgenOptions& options) {
  if (options.num_chunks < 1) {
    return Status::InvalidArgument("num_chunks must be >= 1");
  }
  if (options.reader_threads < 1) {
    return Status::InvalidArgument("reader_threads must be >= 1");
  }
  if (options.num_shards < 2) {
    return Status::InvalidArgument(
        "the skewed scenario needs >= 2 shards (one hot, some cold)");
  }
  if (dataset.num_objects() < options.num_shards) {
    return Status::InvalidArgument(
        "the skewed scenario needs at least one object per shard");
  }
  if (options.zipf_exponent <= 0.0) {
    return Status::InvalidArgument("zipf_exponent must be positive");
  }

  const std::vector<ObservationBatch> chunks =
      ChunkDatasetForReplay(dataset, options.num_chunks);
  const ZipfSampler zipf(dataset.num_objects(), options.zipf_exponent);
  const ShardRouter router(options.num_shards);

  SkewedLoadgenReport report;
  // The hot shard is the one the Zipf mass lands on: sum each object's
  // popularity into its shard and take the argmax (ties to the lower
  // id, matching the scheduler's own tie break).
  std::vector<double> shard_mass(static_cast<size_t>(options.num_shards),
                                 0.0);
  for (ObjectId o = 0; o < dataset.num_objects(); ++o) {
    shard_mass[static_cast<size_t>(router.ShardOf(o))] += zipf.Pmf(o);
  }
  for (int32_t s = 0; s < options.num_shards; ++s) {
    if (shard_mass[static_cast<size_t>(s)] >
        shard_mass[static_cast<size_t>(report.hot_shard)]) {
      report.hot_shard = s;
    }
  }
  report.hot_shard_mass =
      shard_mass[static_cast<size_t>(report.hot_shard)];

  // Phase 1: unlimited budgets, the default service configuration
  // (admission knobs intentionally off — the phases must ingest the
  // identical chunk schedule).
  const SchedulerOptions unlimited{};
  SLIMFAST_ASSIGN_OR_RETURN(
      report.flat, RunPolicyPhase(dataset, chunks, options, unlimited,
                                  zipf, router, report.hot_shard));

  // Phase 2: the budgeted scheduler, same chunks, same pacing, same
  // thread budget.
  SchedulerOptions sched = options.scheduler;
  sched.shed_queue_watermark = 0.0;
  sched.shed_backlog_watermark = 0;
  SLIMFAST_ASSIGN_OR_RETURN(
      report.sched, RunPolicyPhase(dataset, chunks, options, sched, zipf,
                                   router, report.hot_shard));

  // The gate asserts invariants of the policies, not of the timing, so
  // it holds on every execution of a correct build and fails
  // deterministically on a regression: (1) unlimited budgets relearn
  // every pending shard at every cycle, so the hot version lag is 0 by
  // construction; (2) the scheduler's deferral bound guarantees the hot
  // shard's lag never exceeds max_deferred_cycles (the forced-relearn
  // path); (3) the budgets spend strictly fewer relearns — their whole
  // proposition. Wall-clock hot_staleness percentiles stay in the
  // report as informational color (they are load-dependent and used to
  // flake this gate on a busy 1-core box).
  report.gate_passed =
      report.flat.relearns > 0 && report.sched.relearns > 0 &&
      report.flat.hot_version_lag_mean == 0.0 &&
      report.sched.hot_version_lag_max <=
          static_cast<double>(options.scheduler.max_deferred_cycles) &&
      report.sched.relearns < report.flat.relearns;

  SLIMFAST_RETURN_NOT_OK(RunShedExercise(dataset, options, &report));
  return report;
}

}  // namespace slimfast

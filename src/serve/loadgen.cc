#include "serve/loadgen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <utility>

#include "data/observation_store.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "serve/fusion_service.h"
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
/// error returns added later — stops and joins the pool before the
/// service can go away.
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

}  // namespace slimfast

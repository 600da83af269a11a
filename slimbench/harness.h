#ifndef SLIMBENCH_HARNESS_H_
#define SLIMBENCH_HARNESS_H_

// Workload-independent pieces of the benchmark harness: percentiles,
// open-loop pacing, spans and their self times, metric bookkeeping, and
// the seed -> input generator. Everything here is covered by
// slimbench_selftest.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/observation_store.h"
#include "data/split.h"

namespace slimbench {

// ---------------------------------------------------------------------------
// Clock and percentiles

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (p in (0, 1]) of `samples`; sorts in place.
/// 0 on an empty vector.
double Percentile(std::vector<double>* samples, double p);

/// Median of a copy of `values` (nearest rank); 0 when empty.
double Median(std::vector<double> values);

/// True when `n` samples leave at least `min_tail` samples strictly above
/// the nearest-rank p-th percentile, i.e. the percentile is backed by a
/// tail rather than by the maximum alone.
bool PercentileHasTail(int64_t n, double p, int64_t min_tail = 10);

// ---------------------------------------------------------------------------
// Open-loop pacing

/// Outcome of one open-loop schedule: per-request latency measured from
/// when each request was *due* (so a stall delays every request queued
/// behind it), and how late the generator started each request.
struct OpenLoopResult {
  std::vector<double> latency_ns;   // end - due, per request
  std::vector<double> lateness_ns;  // start - due, per request
  int64_t failed = 0;               // requests whose call returned false
};

/// Issues `n` requests at a fixed `interval_ns`, starting at `start_ns`,
/// into `out` (resized to `n`; its capacity is reused). `now` reads the
/// clock, `wait_until` blocks until a deadline, and `call(i)` performs
/// request i (false = failed). The clock functions are parameters so the
/// self-test can drive the schedule with a fake clock.
void RunOpenLoop(int64_t n, int64_t start_ns, int64_t interval_ns,
                 const std::function<int64_t()>& now,
                 const std::function<void(int64_t)>& wait_until,
                 const std::function<bool(int64_t)>& call,
                 OpenLoopResult* out);

/// Blocks until the steady clock reaches `deadline_ns`: sleeps through
/// most of a long wait, then spins.
void WaitUntil(int64_t deadline_ns);

// ---------------------------------------------------------------------------
// Spans

struct Span {
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Span recorder for one thread of the benchmark. Spans are kept in memory
/// and written out when the run ends. When disabled, Begin/End read no
/// clock and record nothing, which is how the overhead of tracing itself
/// is measured.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  void Begin(const char* name);
  void End();

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices into spans_
};

/// RAII span on a (possibly null) tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// Self time per span name, in seconds: each span's duration minus the
/// part of its interval covered by its direct children (overlapping
/// children count once).
std::map<std::string, double> SelfSeconds(const std::vector<Span>& spans);

/// Total duration per span name, in seconds.
std::map<std::string, double> TotalSeconds(const std::vector<Span>& spans);

/// Spans as a JSON array (one object per span).
std::string SpansToJson(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Metrics

/// True when `name` matches [A-Za-z0-9_.-]+.
bool ValidMetricName(const std::string& name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric list; Set() replaces an existing entry of the same name.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Formats a double with all its significant digits (JSON number).
std::string JsonNumber(double v);

/// Escapes `s` as a JSON string literal (quotes included).
std::string JsonString(const std::string& s);

// ---------------------------------------------------------------------------
// Inputs

/// Shards of every service the benchmark runs (FusionServiceOptions and
/// `slimfast_cli serve` default).
constexpr int32_t kShards = 4;

/// The read mix of query_mix, taken from the repository's skewed load
/// generator (SkewedLoadgenOptions in src/serve/loadgen.h): two reader
/// threads and Zipf exponent 1.1. The QUERY/POSTERIOR split is the 80/20
/// of the benchmark's definition.
constexpr int32_t kReaders = 2;
constexpr double kZipfExponent = 1.1;
constexpr double kPosteriorShare = 0.2;
/// Distinct requests per reader; a reader cycles through its sequence.
constexpr int64_t kRequestsPerReader = 1 << 16;
/// COMMIT batches per write stream: more than ten samples lie beyond the
/// p95 of commit visibility in every stream.
constexpr int32_t kStreamCommits = 240;

/// One simulator instance plus the 10% label split a fit uses.
struct FitInput {
  std::string simulator;
  slimfast::Dataset dataset;
  slimfast::TrainTestSplit split;
};

/// One request of the read mix.
struct ReadRequest {
  bool posterior = false;  // false = QUERY
  int32_t object = 0;
};

/// The service-side inputs: a simulator's claims plus only its
/// train-split truths. `preload` (query_mix only) is submitted before the
/// stream; `stream` is cut into COMMIT batches.
struct ServeInput {
  std::string simulator;
  slimfast::Dataset dataset;  // ground truth for accuracy, universe dims
  slimfast::TrainTestSplit split;
  std::vector<slimfast::ObservationBatch> preload;
  std::vector<slimfast::ObservationBatch> stream;
  /// Per reader thread, its request sequence (Zipf-skewed objects).
  std::vector<std::vector<ReadRequest>> reads;
};

/// A bijective renaming of one instance's sources and objects.
struct Relabeling {
  std::vector<int32_t> source;  // old source id -> new source id
  std::vector<int32_t> object;  // old object id -> new object id
};

/// Seeded relabeling that maps every object to one of the same class
/// (`object_class[o]`, e.g. its shard), so each class keeps its members.
Relabeling MakeRelabeling(int32_t num_sources,
                          const std::vector<int32_t>& object_class,
                          uint64_t seed);

/// `dataset` renamed by `r`, its claims in a seeded order.
slimfast::Result<slimfast::Dataset> RelabelDataset(
    const slimfast::Dataset& dataset, const Relabeling& r, uint64_t seed);

/// `split` renamed by `r` (id lists ascending).
slimfast::TrainTestSplit RelabelSplit(const slimfast::TrainTestSplit& split,
                                      const Relabeling& r);

/// `batch` renamed by `r`, its claims and truths in a seeded order.
slimfast::ObservationBatch RelabelBatch(const slimfast::ObservationBatch& batch,
                                        const Relabeling& r, uint64_t seed);

/// Which part of the lifecycle a workload is about. kFit reports the fits'
/// mean accuracy, the others the service's; kRead preloads the service and
/// runs open-loop readers while the writer streams.
enum class Primary { kFit, kStream, kRead };

/// One workload. Every workload runs the same lifecycle (rounds of
/// set-ups, cold fits, durable write streams and their recoveries) so that
/// every end-to-end metric has a value on every workload; the shape decides
/// the data. Only query_mix (kRead) reads: its open-loop readers run while
/// its writer streams into a preloaded service.
struct WorkloadShape {
  std::string name;
  Primary primary = Primary::kFit;
  std::vector<std::string> fit_simulators;
  std::string serve_simulator;
  int32_t relearn_every = 2;  // flat every-K relearn policy
  /// fsync the WAL after every batch. Only stream_commit, which measures
  /// the durable write path; elsewhere the disk's fsync latency would only
  /// add noise to the secondary stream metrics.
  bool fsync_every_batch = false;
  /// Write streams per round, each followed by a recovery. On batch_fit
  /// one stream and its recovery take only a quarter of the round, and a
  /// figure is steadier the more of the run it samples, so it runs two.
  int32_t streams_per_round = 1;
};

/// The three workloads, by name; false for an unknown name.
bool ShapeFor(const std::string& workload, WorkloadShape* shape);

struct WorkloadInputs {
  std::vector<FitInput> fits;
  ServeInput serve;
};

/// Generates every input of `shape` from `seed` with the src/synth
/// simulators. Deterministic: the same (shape, seed) gives byte-identical
/// inputs (see SerializeInputs).
slimfast::Result<WorkloadInputs> GenerateInputs(const WorkloadShape& shape,
                                                uint64_t seed);

/// Canonical byte encoding of everything the program under test receives.
std::string SerializeInputs(const WorkloadInputs& inputs);

}  // namespace slimbench

#endif  // SLIMBENCH_HARNESS_H_

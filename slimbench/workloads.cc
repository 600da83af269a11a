#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <thread>

#include "core/compiled_instance.h"
#include "core/fusion_session.h"
#include "core/optimizer.h"
#include "core/slimfast.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "serve/fusion_service.h"
#include "serve/line_protocol.h"
#include "serve/router.h"
#include "storage/wal.h"
#include "util/random.h"

namespace slimbench {
namespace {

namespace fs = std::filesystem;
using slimfast::Dataset;
using slimfast::FusionService;
using slimfast::FusionServiceOptions;
using slimfast::FusionSnapshotPtr;
using slimfast::LineProtocol;
using slimfast::ObservationBatch;
using slimfast::ValueId;

constexpr uint64_t kFitSeed = 7;
/// Rounds (set-ups, one cold fit per simulator, write streams each with a
/// recovery) repeat while the next one still ends within --seconds, at
/// least this many times, so every median and minimum has three samples.
constexpr int kMinRounds = 3;
/// Set-ups per round; setup_s is the median over all rounds.
constexpr int kSetupRepsPerRound = 10;
/// Offered rate of query_mix's readers (all readers together): a quarter
/// of the capacity the ladder below measured for this read mix on the
/// parent commit (see README, "Read parameters"), so the readers keep up
/// while relearns share the cores.
constexpr double kReadRateQps = 125000.0;
/// Longest read window one write stream records; the per-request sample
/// buffers are sized for it once, so peak memory does not depend on how
/// long a stream took.
constexpr double kMaxReadWindowSeconds = 8.0;
/// Latency limit on query p99 for the capacity ladder, in microseconds.
constexpr double kQueryP99LimitUs = 2000.0;
/// Capacity ladder: doubling coarse rungs from kLadderBase, then a binary
/// search over the fixed 2^(1/16) sub-ladder between the last passing and
/// first failing coarse rung. A rung counts as failed only when all of
/// kRungAttempts runs fail: one multi-millisecond stall of a shared machine
/// would fail a short rung on its own, while a rate beyond capacity fails
/// every time.
constexpr double kLadderBase = 10000.0;
constexpr int kRungAttempts = 2;
/// The top rung, 5.12M req/s, is above any capacity measured on a 4-vCPU
/// VM (0.54-1.28M+); a run whose top rung passes reports that rung.
constexpr int kCoarseRungs = 10;
constexpr int kFineSteps = 16;
/// Seconds per ladder rung, and of the fixed-rate read window that
/// workloads without reads of their own run in the traced pass.
constexpr double kRungSeconds = 0.2;
constexpr double kTracedReadSeconds = 1.0;
/// Closed-loop probes per protocol verb / snapshot read in the traced pass.
constexpr int64_t kProbeCalls = 40000;

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Counts operations and failed ones; keeps the first few messages.
struct Ops {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;

  bool Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
    return ok;
  }
  void Merge(const Ops& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& f : other.failures) {
      if (failures.size() < 20) failures.push_back(f);
    }
  }
};

FusionServiceOptions ServiceOptions(const WorkloadShape& shape) {
  FusionServiceOptions o;
  o.num_shards = kShards;
  o.relearn_every_batches = shape.relearn_every;
  // One thread each for the shard fan-out and every session's learner, so
  // the service driver, the benchmark's writer and at most two readers
  // stay within four runnable threads.
  o.shard_exec.threads = 1;
  o.session.slimfast.exec.threads = 1;
  o.durability.wal.fsync = shape.fsync_every_batch
                              ? slimfast::WalFsync::kEveryBatch
                              : slimfast::WalFsync::kNone;
  return o;
}

bool SnapshotsEqual(const std::vector<FusionSnapshotPtr>& a,
                    const std::vector<FusionSnapshotPtr>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == nullptr || b[i] == nullptr || !(*a[i] == *b[i])) return false;
  }
  return true;
}

int64_t SnapshotBytes(const slimfast::FusionSnapshot& s) {
  return static_cast<int64_t>(
      sizeof(s) + s.predictions.size() * sizeof(ValueId) +
      s.max_posterior.size() * sizeof(double) +
      s.posterior_begin.size() * sizeof(int64_t) +
      s.posterior_values.size() * sizeof(ValueId) +
      s.posterior_probs.size() * sizeof(double) +
      s.source_accuracies.size() * sizeof(double) +
      s.weights.size() * sizeof(double) +
      s.claim_counts.size() * sizeof(int32_t));
}

/// Held-out accuracy of the service's merged predictions.
double ServedAccuracy(const FusionService& service, const ServeInput& in) {
  auto acc = slimfast::TestAccuracy(in.dataset, service.MergedPredictions(),
                                    in.split);
  return acc.ok() ? acc.ValueOrDie() : 0.0;
}

/// Every batch the service receives, in order: the preload, then the
/// stream.
std::vector<ObservationBatch> AllBatches(const ServeInput& in) {
  std::vector<ObservationBatch> all = in.preload;
  all.insert(all.end(), in.stream.begin(), in.stream.end());
  return all;
}

// ---------------------------------------------------------------------------
// Reply checks

bool ParseLong(const char** p, long* out) {
  char* end = nullptr;
  *out = std::strtol(*p, &end, 10);
  if (end == *p) return false;
  *p = end;
  return true;
}

bool ParseProb(const char** p, double* out) {
  char* end = nullptr;
  *out = std::strtod(*p, &end);
  if (end == *p) return false;
  *p = end;
  return *out >= 0.0 && *out <= 1.0 + 1e-9;
}

/// "VALUE <v> <confidence>" with v inside the universe, or "NONE".
bool QueryReplyOk(const std::string& reply, int32_t num_values) {
  if (reply == "NONE") return true;
  if (reply.rfind("VALUE ", 0) != 0) return false;
  const char* p = reply.c_str() + 6;
  long v = 0;
  double c = 0.0;
  if (!ParseLong(&p, &v) || v < 0 || v >= num_values) return false;
  if (*p != ' ') return false;
  ++p;
  return ParseProb(&p, &c) && *p == '\0';
}

/// "POSTERIOR v:p v:p ..." with every v inside the universe and the
/// probabilities summing to one, or "NONE".
bool PosteriorReplyOk(const std::string& reply, int32_t num_values) {
  if (reply == "NONE") return true;
  if (reply.rfind("POSTERIOR", 0) != 0) return false;
  const char* p = reply.c_str() + 9;
  double sum = 0.0;
  int terms = 0;
  while (*p == ' ') {
    ++p;
    long v = 0;
    double prob = 0.0;
    if (!ParseLong(&p, &v) || v < 0 || v >= num_values || *p != ':') {
      return false;
    }
    ++p;
    if (!ParseProb(&p, &prob)) return false;
    sum += prob;
    ++terms;
  }
  return *p == '\0' && terms > 0 && std::fabs(sum - 1.0) < 1e-3;
}

// ---------------------------------------------------------------------------
// Set-up

/// batch_fit and stream_commit set-up: build each fitted Dataset from its
/// generated claims and draw its 10% TrainTestSplit. (stream_commit's
/// service starts from an empty directory inside every stream; on its own
/// that start is about a millisecond of file creation and fsync whose level
/// moved 2x between sets of runs.)
double SetupDatasets(const WorkloadInputs& inputs, uint64_t seed, Ops* ops) {
  const int64_t t0 = NowNs();
  for (const FitInput& fit : inputs.fits) {
    const Dataset& d = fit.dataset;
    slimfast::DatasetBuilder builder(d.name(), d.num_sources(),
                                     d.num_objects(), d.num_values());
    bool ok = true;
    for (const slimfast::Observation& o : d.observations()) {
      ok = ok && builder.AddObservation(o.object, o.source, o.value).ok();
    }
    for (slimfast::ObjectId o : d.ObjectsWithTruth()) {
      ok = ok && builder.SetTruth(o, d.Truth(o)).ok();
    }
    *builder.mutable_features() = d.features();
    auto built = std::move(builder).Build();
    ok = ok && built.ok();
    if (ok) {
      slimfast::Rng rng(seed);
      auto split = slimfast::MakeSplit(built.ValueOrDie(), 0.1, &rng);
      ok = split.ok() && split.ValueOrDie().train_objects.size() ==
                             fit.split.train_objects.size();
    }
    ops->Check(ok, "setup: dataset build for " + fit.simulator);
  }
  return Seconds(NowNs() - t0);
}

/// query_mix set-up: Create an in-memory service, submit the preload
/// batches, and wait for the first Drain (a cold fit per shard and the
/// first published snapshots).
double SetupPreload(const ServeInput& in, FusionServiceOptions opts,
                    Ops* ops) {
  opts.durability = {};
  const int64_t t0 = NowNs();
  auto service = FusionService::Create(in.dataset.num_sources(),
                                       in.dataset.num_objects(),
                                       in.dataset.num_values(), opts,
                                       in.dataset.features());
  bool ok = service.ok();
  for (const ObservationBatch& b : in.preload) {
    ok = ok && service.ValueOrDie()->Submit(b).ok();
  }
  ok = ok && service.ValueOrDie()->Drain().ok();
  const double s = Seconds(NowNs() - t0);
  ops->Check(ok && service.ValueOrDie()->stats().ingest_failures == 0,
             "setup: preload and first Drain");
  if (service.ok()) service.ValueOrDie()->Stop();
  return s;
}

// ---------------------------------------------------------------------------
// Cold fits

struct FitRep {
  std::vector<double> seconds;  // per simulator
  std::vector<std::vector<ValueId>> predictions;
  std::vector<double> accuracies;
};

slimfast::SlimFastOptions FitOptions() {
  slimfast::SlimFastOptions options;
  options.exec.threads = 1;
  return options;
}

FitRep RunFitsOnce(const WorkloadInputs& inputs, Ops* ops) {
  FitRep rep;
  for (const FitInput& fit : inputs.fits) {
    slimfast::CompiledInstanceCache::Global().Clear();
    auto method = slimfast::MakeSlimFast(FitOptions());
    const int64_t t0 = NowNs();
    auto out = method->Run(fit.dataset, fit.split, kFitSeed);
    rep.seconds.push_back(Seconds(NowNs() - t0));
    if (!ops->Check(out.ok(), "fit: SlimFast::Run on " + fit.simulator)) {
      rep.predictions.emplace_back();
      rep.accuracies.push_back(0.0);
      continue;
    }
    auto acc = slimfast::TestAccuracy(
        fit.dataset, out.ValueOrDie().predicted_values, fit.split);
    rep.accuracies.push_back(acc.ok() ? acc.ValueOrDie() : 0.0);
    rep.predictions.push_back(std::move(out.ValueOrDie().predicted_values));
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Open-loop readers

/// Figures of one read window, all readers pooled.
struct ReadSummary {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double late_p99_us = 0.0;  // how late the generator started a request
  /// The worst reader's median lateness over its last tenth of requests:
  /// a backlog that grows through the window ends it late.
  double final_late_us = 0.0;
  double achieved_qps = 0.0;
  int64_t requests = 0;
  int64_t failed = 0;
};

/// kReaders open-loop readers, each with its own LineProtocol, sending the
/// workload's read mix at `total_qps` from Start() until Stop(). The
/// per-request sample buffers are allocated and touched once, for the
/// longest window.
class Readers {
 public:
  Readers(const ServeInput* in, double total_qps, double max_seconds)
      : in_(in),
        interval_ns_(static_cast<int64_t>(1e9 * kReaders / total_qps)),
        capacity_(static_cast<int64_t>(max_seconds * 1e9) / interval_ns_) {
    for (const auto& seq : in->reads) {
      std::vector<std::string> lines;
      lines.reserve(seq.size());
      for (const ReadRequest& r : seq) {
        lines.push_back((r.posterior ? "POSTERIOR " : "QUERY ") +
                        std::to_string(r.object));
      }
      lines_.push_back(std::move(lines));
    }
    const size_t pooled = static_cast<size_t>(capacity_ * kReaders);
    latency_ns_.assign(pooled, 0.0);
    lateness_ns_.assign(pooled, 0.0);
  }
  ~Readers() { Join(); }
  Readers(const Readers&) = delete;
  Readers& operator=(const Readers&) = delete;

  void Start(FusionService* service) {
    const size_t pooled = static_cast<size_t>(capacity_ * kReaders);
    latency_ns_.resize(pooled);  // Stop() shrank them; no reallocation
    lateness_ns_.resize(pooled);
    stop_.store(false, std::memory_order_release);
    issued_.assign(kReaders, 0);
    last_end_.assign(kReaders, 0);
    reader_ops_.assign(kReaders, Ops());
    start_ = NowNs() + 1'000'000;
    for (int32_t r = 0; r < kReaders; ++r) {
      threads_.emplace_back([this, r, service] { Run(r, service); });
    }
  }

  /// Stops the readers and summarizes the window (sorts the samples).
  ReadSummary Stop(Ops* ops) {
    stop_.store(true, std::memory_order_release);
    Join();
    ReadSummary s;
    // Pool every reader's samples at the front of the buffers.
    size_t n = 0;
    int64_t end = start_;
    for (int32_t r = 0; r < kReaders; ++r) {
      const size_t from = static_cast<size_t>(r * capacity_);
      const size_t count = static_cast<size_t>(issued_[static_cast<size_t>(r)]);
      const auto late = lateness_ns_.begin() + from;
      s.final_late_us = std::max(
          s.final_late_us,
          Median(std::vector<double>(late + count - count / 10, late + count)) *
              1e-3);
      std::copy_n(latency_ns_.begin() + from, count, latency_ns_.begin() + n);
      std::copy_n(late, count, lateness_ns_.begin() + n);
      n += count;
      end = std::max(end, last_end_[static_cast<size_t>(r)]);
      s.failed += reader_ops_[static_cast<size_t>(r)].failed;
      ops->Merge(reader_ops_[static_cast<size_t>(r)]);
    }
    latency_ns_.resize(n);
    lateness_ns_.resize(n);
    s.requests = static_cast<int64_t>(n);
    s.achieved_qps = static_cast<double>(n) / Seconds(end - start_);
    s.p50_us = Percentile(&latency_ns_, 0.50) * 1e-3;
    s.p99_us = Percentile(&latency_ns_, 0.99) * 1e-3;
    s.late_p99_us = Percentile(&lateness_ns_, 0.99) * 1e-3;
    return s;
  }

 private:
  /// Requests per RunOpenLoop call; the stop flag is read between calls.
  static constexpr int64_t kChunk = 1024;

  void Run(int32_t r, FusionService* service) {
    LineProtocol proto(service);
    const std::vector<std::string>& lines = lines_[static_cast<size_t>(r)];
    const std::vector<ReadRequest>& reqs = in_->reads[static_cast<size_t>(r)];
    const int32_t num_values = in_->dataset.num_values();
    const size_t base = static_cast<size_t>(r * capacity_);
    Ops& ops = reader_ops_[static_cast<size_t>(r)];
    OpenLoopResult chunk;
    std::string reply;
    int64_t issued = 0;
    while (issued < capacity_ && !stop_.load(std::memory_order_acquire)) {
      const int64_t n = std::min(kChunk, capacity_ - issued);
      RunOpenLoop(
          n, start_ + issued * interval_ns_, interval_ns_, NowNs, WaitUntil,
          [&](int64_t i) {
            const size_t k = static_cast<size_t>(issued + i) % lines.size();
            reply = proto.HandleLine(lines[k]);
            const bool ok = reqs[k].posterior
                                ? PosteriorReplyOk(reply, num_values)
                                : QueryReplyOk(reply, num_values);
            if (ok) {
              ++ops.attempted;
            } else {
              ops.Check(false, "read: " + lines[k] + " -> " + reply);
            }
            return ok;
          },
          &chunk);
      std::copy(chunk.latency_ns.begin(), chunk.latency_ns.end(),
                latency_ns_.begin() + base + static_cast<size_t>(issued));
      std::copy(chunk.lateness_ns.begin(), chunk.lateness_ns.end(),
                lateness_ns_.begin() + base + static_cast<size_t>(issued));
      issued += n;
    }
    issued_[static_cast<size_t>(r)] = issued;
    last_end_[static_cast<size_t>(r)] = NowNs();
  }

  void Join() {
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }

  const ServeInput* in_;
  int64_t interval_ns_;
  int64_t capacity_;  // requests per reader and window
  std::vector<std::vector<std::string>> lines_;
  std::vector<double> latency_ns_;   // reader r at [r * capacity_, ...)
  std::vector<double> lateness_ns_;
  int64_t start_ = 0;
  std::vector<int64_t> issued_;
  std::vector<int64_t> last_end_;
  std::vector<Ops> reader_ops_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------------
// Durable write stream through the line protocol

struct StreamOutcome {
  int64_t observations = 0;  // streamed, preload excluded
  double seconds = 0.0;      // first COMMIT -> DRAIN ack
  std::vector<double> visible_ms;
  std::vector<double> obs_us;     // per OBS/TRUTH line (time_verbs only)
  std::vector<double> commit_us;  // per COMMIT ack
  std::vector<FusionSnapshotPtr> final_snapshots;
  double accuracy = 0.0;
  int64_t publishes = 0;
  int64_t err_replies = 0;
  ReadSummary reads;  // with readers only
};

struct RenderedBatch {
  std::vector<std::string> lines;  // OBS/TRUTH lines
  std::string commit_reply;        // expected "OK n m"
  std::vector<int64_t> required;   // per-shard cumulative observations
};

std::vector<RenderedBatch> RenderBatches(
    const std::vector<ObservationBatch>& batches,
    const slimfast::ShardRouter& router, std::vector<int64_t>* cumulative) {
  std::vector<RenderedBatch> out;
  out.reserve(batches.size());
  for (const ObservationBatch& b : batches) {
    RenderedBatch r;
    for (const slimfast::Observation& o : b.observations) {
      r.lines.push_back("OBS " + std::to_string(o.object) + " " +
                        std::to_string(o.source) + " " +
                        std::to_string(o.value));
      ++(*cumulative)[static_cast<size_t>(router.ShardOf(o.object))];
    }
    for (const slimfast::TruthLabel& t : b.truths) {
      r.lines.push_back("TRUTH " + std::to_string(t.object) + " " +
                        std::to_string(t.value));
    }
    r.commit_reply = "OK " + std::to_string(b.observations.size()) + " " +
                     std::to_string(b.truths.size());
    r.required = *cumulative;
    out.push_back(std::move(r));
  }
  return out;
}

/// Sends every line of `batch` and its COMMIT; returns the COMMIT's call
/// time. Records per-call latencies when the vectors are non-null.
int64_t SendBatch(LineProtocol* proto, const RenderedBatch& batch, Ops* ops,
                  int64_t* err_replies, std::vector<double>* obs_us,
                  std::vector<double>* commit_us) {
  for (const std::string& line : batch.lines) {
    const int64_t t0 = obs_us != nullptr ? NowNs() : 0;
    const std::string reply = proto->HandleLine(line);
    if (obs_us != nullptr) obs_us->push_back((NowNs() - t0) * 1e-3);
    if (!ops->Check(reply == "OK", "protocol: " + line + " -> " + reply)) {
      if (reply.rfind("ERR", 0) == 0) ++*err_replies;
    }
  }
  const int64_t t_commit = NowNs();
  const std::string reply = proto->HandleLine("COMMIT");
  if (commit_us != nullptr) commit_us->push_back((NowNs() - t_commit) * 1e-3);
  if (!ops->Check(reply == batch.commit_reply, "protocol: COMMIT -> " + reply)) {
    if (reply.rfind("ERR", 0) == 0) ++*err_replies;
  }
  return t_commit;
}

/// One closed-loop client streams `in.stream` into a fresh durable service
/// at `dir` (after submitting `in.preload`, if any) while a watcher thread
/// records when each COMMIT becomes visible: every shard has published a
/// snapshot holding at least the shard's cumulative observation count
/// through that batch. With `readers`, the readers run from the first
/// COMMIT to the DRAIN ack.
StreamOutcome RunStream(const ServeInput& in, const FusionServiceOptions& opts,
                        const std::string& dir, bool time_verbs,
                        Readers* readers, Ops* ops) {
  StreamOutcome out;
  fs::remove_all(dir);
  auto created = FusionService::Recover(dir, in.dataset.num_sources(),
                                        in.dataset.num_objects(),
                                        in.dataset.num_values(), opts,
                                        in.dataset.features());
  if (!ops->Check(created.ok(), "stream: Recover on an empty directory")) {
    return out;
  }
  std::unique_ptr<FusionService> service = std::move(created.ValueOrDie());
  std::vector<int64_t> cumulative(kShards, 0);
  // The preload ends on a relearn of the flat policy, so the Drain below
  // adds none and the live service stays comparable to the offline replay.
  for (const ObservationBatch& b : in.preload) {
    ops->Check(service->Submit(b).ok(), "stream: preload");
    for (const slimfast::Observation& o : b.observations) {
      ++cumulative[static_cast<size_t>(service->router().ShardOf(o.object))];
    }
  }
  if (!in.preload.empty()) {
    ops->Check(service->Drain().ok(), "stream: preload Drain");
  }
  const std::vector<RenderedBatch> batches =
      RenderBatches(in.stream, service->router(), &cumulative);
  const size_t n = batches.size();

  // The watcher owns visible_ns until it is joined; it publishes how many
  // batches it has marked visible through `visible`.
  std::vector<int64_t> commit_ns(n, 0);
  std::vector<int64_t> visible_ns(n, 0);
  std::atomic<size_t> committed{0};
  std::atomic<size_t> visible{0};
  std::atomic<bool> done{false};
  std::thread watcher([&] {
    size_t next = 0;
    std::vector<int64_t> published(kShards, 0);
    while (next < n) {
      const size_t c = committed.load(std::memory_order_acquire);
      if (next < c) {
        for (int32_t k = 0; k < kShards; ++k) {
          FusionSnapshotPtr snap = service->ShardSnapshot(k);
          published[static_cast<size_t>(k)] =
              snap == nullptr ? 0 : snap->num_observations;
        }
        const int64_t now = NowNs();
        while (next < c) {
          const std::vector<int64_t>& req = batches[next].required;
          bool ok = true;
          for (int32_t k = 0; k < kShards; ++k) {
            ok = ok && published[static_cast<size_t>(k)] >=
                           req[static_cast<size_t>(k)];
          }
          if (!ok) break;
          visible_ns[next++] = now;
        }
        visible.store(next, std::memory_order_release);
      } else if (done.load(std::memory_order_acquire)) {
        break;
      }
      // Visibility is hundreds of milliseconds; a coarser poll keeps the
      // watcher off the cores the service and the readers use.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  LineProtocol proto(service.get());
  if (time_verbs) {
    out.obs_us.reserve(static_cast<size_t>(in.dataset.num_observations()));
  }
  if (readers != nullptr) readers->Start(service.get());
  for (size_t i = 0; i < n; ++i) {
    commit_ns[i] =
        SendBatch(&proto, batches[i], ops, &out.err_replies,
                  time_verbs ? &out.obs_us : nullptr, &out.commit_us);
    committed.store(i + 1, std::memory_order_release);
  }
  const std::string drain = proto.HandleLine("DRAIN");
  const int64_t t_drained = NowNs();
  ops->Check(drain == "OK", "protocol: DRAIN -> " + drain);
  if (readers != nullptr) out.reads = readers->Stop(ops);
  // Everything is published once DRAIN acks; give the watcher a bounded
  // moment to observe it, then stop it.
  const int64_t give_up = NowNs() + 2'000'000'000;
  while (visible.load(std::memory_order_acquire) < n && NowNs() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true, std::memory_order_release);
  watcher.join();

  for (const ObservationBatch& b : in.stream) {
    out.observations += static_cast<int64_t>(b.observations.size());
  }
  out.seconds = n == 0 ? 0.0 : Seconds(t_drained - commit_ns[0]);
  for (size_t i = 0; i < n; ++i) {
    if (ops->Check(visible_ns[i] != 0, "stream: commit never visible")) {
      out.visible_ms.push_back((visible_ns[i] - commit_ns[i]) * 1e-6);
    }
  }
  out.final_snapshots = service->AllSnapshots();
  out.accuracy = ServedAccuracy(*service, in);
  out.publishes = service->stats().publishes;
  ops->Check(service->stats().ingest_failures == 0,
             "stream: service reported ingest failures: " +
                 service->stats().last_error);
  service->Stop();
  return out;
}

// ---------------------------------------------------------------------------
// Capacity ladder (traced runs)

/// Reads `service` at `total_qps` for `seconds`, without writes.
ReadSummary ReadFor(FusionService* service, const ServeInput& in,
                    double total_qps, double seconds, Ops* ops) {
  Readers readers(&in, total_qps, seconds);
  readers.Start(service);
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(static_cast<int64_t>(seconds * 1e9)));
  return readers.Stop(ops);
}

/// Achieved rate of the highest ladder rung whose p99 and final lateness
/// stay within kQueryP99LimitUs.
double MeasureCapacity(FusionService* service, const ServeInput& in,
                       Ops* ops) {
  // Returns the achieved rate, or 0 when the rung fails.
  auto run_rung = [&](double rate) {
    for (int attempt = 0; attempt < kRungAttempts; ++attempt) {
      const ReadSummary r = ReadFor(service, in, rate, kRungSeconds, ops);
      if (r.failed == 0 && r.p99_us <= kQueryP99LimitUs &&
          r.final_late_us <= kQueryP99LimitUs) {
        return r.achieved_qps;
      }
    }
    return 0.0;
  };
  // Coarse doubling rungs, then a binary search over the fine sub-ladder.
  double pass_rate = 0.0;
  double pass_achieved = 0.0;
  double fail_rate = 0.0;
  for (int i = 0; i < kCoarseRungs; ++i) {
    const double rate = kLadderBase * std::pow(2.0, i);
    const double achieved = run_rung(rate);
    if (achieved == 0.0) {
      fail_rate = rate;
      break;
    }
    pass_rate = rate;
    pass_achieved = achieved;
  }
  if (pass_rate > 0.0 && fail_rate > 0.0) {
    int lo = 0;
    int hi = kFineSteps;  // fine step k = pass_rate * 2^(k / kFineSteps)
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      const double achieved = run_rung(
          pass_rate * std::pow(2.0, static_cast<double>(mid) / kFineSteps));
      if (achieved > 0.0) {
        lo = mid;
        pass_achieved = achieved;
      } else {
        hi = mid;
      }
    }
  }
  return pass_achieved;
}

// ---------------------------------------------------------------------------
// The traced pass: the same work as the lifecycle, decomposed into calls
// on each layer's public functions, each wrapped in a benchmark span.

struct TracedCounters {
  std::map<std::string, double> learn_by_sim;
  int64_t fits = 0;
  int64_t em_fits = 0;
  int64_t learn_iterations = 0;
  int64_t learn_converged = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t touched_rows = 0;
  int64_t relearns = 0;
  int64_t warm_relearns = 0;
  int64_t relearn_iterations = 0;
  std::vector<double> cycle_seconds;  // per relearn cycle, all shards
  std::vector<double> imbalance;      // per cycle with >= 2 relearns
  int64_t exports = 0;
  int64_t export_bytes = 0;
  int64_t sync_calls = 0;
  int64_t wal_bytes = 0;
  int64_t replayed_records = 0;
  std::vector<double> query_us;
  std::vector<double> posterior_us;
  std::vector<double> snapshot_read_us;
  int64_t err_replies = 0;
};

struct TracedPass {
  double wall_s = 0.0;
  std::vector<Span> spans;
  TracedCounters counters;
};

double LastSpanUs(const Tracer& tracer, int64_t fallback_start_ns) {
  if (tracer.enabled()) {
    const Span& s = tracer.spans().back();
    return (s.end_ns - s.start_ns) * 1e-3;
  }
  return (NowNs() - fallback_start_ns) * 1e-3;
}

TracedPass RunTracedPass(const WorkloadShape& shape,
                         const WorkloadInputs& inputs,
                         const FitRep& reference_fits,
                         const std::vector<FusionSnapshotPtr>& live_final,
                         const std::string& dir, bool enabled, Ops* ops) {
  TracedPass pass;
  Tracer tracer(enabled);
  TracedCounters& c = pass.counters;
  const int64_t t0 = NowNs();
  tracer.Begin("run");

  // --- core: compile -> optimizer -> learn -> infer, per simulator.
  slimfast::SlimFast method(FitOptions());
  for (size_t i = 0; i < inputs.fits.size(); ++i) {
    const FitInput& fit = inputs.fits[i];
    auto& cache = slimfast::CompiledInstanceCache::Global();
    cache.Clear();
    const int64_t hits0 = cache.hits();
    const int64_t misses0 = cache.misses();
    slimfast::Executor exec(method.options().exec);
    std::shared_ptr<const slimfast::CompiledInstance> instance;
    {
      ScopedSpan span(&tracer, "core.compile");
      auto compiled = cache.GetOrCompile(fit.dataset, method.options().model);
      if (!ops->Check(compiled.ok(), "traced: compile " + fit.simulator)) {
        continue;
      }
      instance = compiled.ValueOrDie();
    }
    c.cache_hits += cache.hits() - hits0;
    c.cache_misses += cache.misses() - misses0;
    {
      ScopedSpan span(&tracer, "core.optimizer");
      const slimfast::OptimizerDecision decision = slimfast::DecideAlgorithm(
          fit.dataset, fit.split, instance->model->layout.num_params,
          method.options().optimizer);
      c.em_fits += decision.algorithm == slimfast::Algorithm::kEm ? 1 : 0;
    }
    const int64_t learn0 = NowNs();
    auto fitted = [&] {
      ScopedSpan span(&tracer, "core.learn");
      return method.FitCompiled(fit.dataset, fit.split, kFitSeed, instance,
                                nullptr, &exec);
    }();
    c.learn_by_sim[fit.simulator] += Seconds(NowNs() - learn0);
    if (!ops->Check(fitted.ok(), "traced: learn " + fit.simulator)) continue;
    ++c.fits;
    c.learn_iterations += fitted.ValueOrDie().learn_iterations;
    c.learn_converged += fitted.ValueOrDie().learn_converged ? 1 : 0;
    std::vector<ValueId> predictions;
    {
      ScopedSpan span(&tracer, "core.infer");
      predictions = fitted.ValueOrDie().model.PredictAll();
    }
    ops->Check(i < reference_fits.predictions.size() &&
                   predictions == reference_fits.predictions[i],
               "check: traced predictions differ from SlimFast::Run on " +
                   fit.simulator);
  }

  // --- serve/storage/core: the write stream in service order.
  const ServeInput& in = inputs.serve;
  const FusionServiceOptions opts = ServiceOptions(shape);
  const std::string wal_dir = dir + (enabled ? "/traced-wal-on" : "/traced-wal-off");
  fs::remove_all(wal_dir);
  slimfast::WalOptions wal_options;
  wal_options.fsync = slimfast::WalFsync::kNone;  // Sync() is timed apart
  auto writer = slimfast::WalWriter::Open(wal_dir, wal_options);
  slimfast::ShardRouter router(kShards);
  std::vector<slimfast::FusionSession> sessions;
  for (int32_t s = 0; s < kShards; ++s) {
    slimfast::FusionSessionOptions so = opts.session;
    so.name += "-shard" + std::to_string(s);
    auto session = slimfast::FusionSession::Create(
        in.dataset.num_sources(), in.dataset.num_objects(),
        in.dataset.num_values(), so, in.dataset.features());
    if (!ops->Check(session.ok(), "traced: session create")) return pass;
    sessions.push_back(std::move(session.ValueOrDie()));
  }
  if (!ops->Check(writer.ok(), "traced: WAL open")) return pass;
  std::vector<int32_t> pending(kShards, 0);
  auto relearn_cycle = [&] {
    double cycle = 0.0;
    double max_s = 0.0;
    int relearned = 0;
    for (int32_t s = 0; s < kShards; ++s) {
      slimfast::FusionSession& session = sessions[static_cast<size_t>(s)];
      if (pending[static_cast<size_t>(s)] == 0 ||
          session.num_observations() == 0) {
        continue;
      }
      const int64_t r0 = NowNs();
      auto stats = [&] {
        ScopedSpan span(&tracer, "core.session.relearn");
        return session.Relearn();
      }();
      const double secs = Seconds(NowNs() - r0);
      if (!ops->Check(stats.ok(), "traced: relearn")) continue;
      pending[static_cast<size_t>(s)] = 0;
      ++c.relearns;
      c.warm_relearns += stats.ValueOrDie().warm_started ? 1 : 0;
      c.relearn_iterations += stats.ValueOrDie().learn_iterations;
      cycle += secs;
      max_s = std::max(max_s, secs);
      ++relearned;
      FusionSnapshotPtr snap;
      {
        ScopedSpan span(&tracer, "core.snapshot.export");
        snap = session.ExportSnapshot();
      }
      ++c.exports;
      c.export_bytes += SnapshotBytes(*snap);
    }
    if (relearned > 0) c.cycle_seconds.push_back(cycle);
    if (relearned >= 2) c.imbalance.push_back(max_s / (cycle / relearned));
  };
  const std::vector<ObservationBatch> all_batches = AllBatches(in);
  int64_t applied = 0;
  for (const ObservationBatch& batch : all_batches) {
    {
      ScopedSpan span(&tracer, "storage.wal_append");
      ops->Check(writer.ValueOrDie()->Append(batch).ok(), "traced: append");
    }
    if (shape.fsync_every_batch) {
      ScopedSpan span(&tracer, "storage.wal_sync");
      ops->Check(writer.ValueOrDie()->Sync().ok(), "traced: sync");
      ++c.sync_calls;
    }
    std::vector<ObservationBatch> subs;
    {
      ScopedSpan span(&tracer, "serve.router.split");
      subs = router.Split(batch);
    }
    for (int32_t s = 0; s < kShards; ++s) {
      const ObservationBatch& sub = subs[static_cast<size_t>(s)];
      if (sub.empty()) continue;
      auto stats = [&] {
        ScopedSpan span(&tracer, "core.session.ingest");
        return sessions[static_cast<size_t>(s)].Ingest(sub);
      }();
      if (!ops->Check(stats.ok(), "traced: ingest")) continue;
      c.touched_rows += stats.ValueOrDie().touched_objects;
      ++pending[static_cast<size_t>(s)];
    }
    ++applied;
    if (applied % shape.relearn_every == 0) relearn_cycle();
  }
  relearn_cycle();  // the DRAIN flush
  writer.ValueOrDie().reset();
  std::vector<FusionSnapshotPtr> replayed;
  for (slimfast::FusionSession& session : sessions) {
    replayed.push_back(session.ExportSnapshot());
  }
  ops->Check(SnapshotsEqual(replayed, live_final),
             "check: traced replay differs from the live service");
  for (const auto& entry : fs::directory_iterator(wal_dir)) {
    if (entry.is_regular_file()) {
      c.wal_bytes += static_cast<int64_t>(entry.file_size());
    }
  }
  {
    ScopedSpan span(&tracer, "storage.replay");
    auto scan = slimfast::ScanWal(wal_dir);
    ops->Check(scan.ok(), "traced: scan WAL");
    const slimfast::Status st = slimfast::ReplayWal(
        wal_dir, 0, [&](const slimfast::WalRecord&) {
          ++c.replayed_records;
          return slimfast::Status::OK();
        });
    ops->Check(st.ok(), "traced: replay WAL");
  }
  ops->Check(c.replayed_records == static_cast<int64_t>(all_batches.size()),
             "check: WAL replay record count");

  // --- serve: recovery, then closed-loop probes of the read path.
  std::unique_ptr<FusionService> service;
  {
    ScopedSpan span(&tracer, "serve.recover");
    FusionServiceOptions recover_opts = opts;
    auto recovered = FusionService::Recover(
        wal_dir, in.dataset.num_sources(), in.dataset.num_objects(),
        in.dataset.num_values(), recover_opts, in.dataset.features());
    if (ops->Check(recovered.ok(), "traced: recover")) {
      service = std::move(recovered.ValueOrDie());
    }
  }
  if (service != nullptr) {
    ops->Check(SnapshotsEqual(service->AllSnapshots(), live_final),
               "check: traced recovery differs from the live service");
    LineProtocol proto(service.get());
    const std::vector<ReadRequest>& reqs = in.reads[0];
    const int32_t nv = in.dataset.num_values();
    for (int64_t i = 0; i < kProbeCalls; ++i) {
      const ReadRequest& r = reqs[static_cast<size_t>(i) % reqs.size()];
      const std::string line = (r.posterior ? "POSTERIOR " : "QUERY ") +
                               std::to_string(r.object);
      const int64_t p0 = NowNs();
      std::string reply;
      {
        ScopedSpan span(&tracer, r.posterior ? "serve.protocol.posterior"
                                             : "serve.protocol.query");
        reply = proto.HandleLine(line);
      }
      (r.posterior ? c.posterior_us : c.query_us)
          .push_back(LastSpanUs(tracer, p0));
      const bool ok = r.posterior ? PosteriorReplyOk(reply, nv)
                                  : QueryReplyOk(reply, nv);
      if (!ops->Check(ok, "traced: reply " + reply)) {
        if (reply.rfind("ERR", 0) == 0) ++c.err_replies;
      }
      const int64_t s0 = NowNs();
      {
        ScopedSpan span(&tracer, "serve.snapshot.read");
        FusionSnapshotPtr snap = service->SnapshotFor(r.object);
        ops->Check(snap != nullptr, "traced: SnapshotFor");
      }
      c.snapshot_read_us.push_back(LastSpanUs(tracer, s0));
    }
    service->Stop();
  }
  tracer.End();
  pass.wall_s = Seconds(NowNs() - t0);
  pass.spans = tracer.spans();
  fs::remove_all(wal_dir);
  return pass;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double QuarterGrowth(const std::vector<double>& v) {
  if (v.size() < 4) return 1.0;
  const size_t q = v.size() / 4;
  double first = 0.0;
  double last = 0.0;
  for (size_t i = 0; i < q; ++i) {
    first += v[i];
    last += v[v.size() - q + i];
  }
  return first > 0.0 ? last / first : 1.0;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace

RunReport RunWorkload(const WorkloadShape& shape, const WorkloadInputs& inputs,
                      const RunConfig& config) {
  Ops ops;
  RunReport report;
  const ServeInput& in = inputs.serve;
  const FusionServiceOptions opts = ServiceOptions(shape);
  const std::string stream_dir = config.work_dir + "/wal";

  const int64_t run_start = NowNs();
  auto phase_done = [&](const char* name, int64_t since) {
    report.phase_seconds.push_back({name, Seconds(NowNs() - since)});
    return NowNs();
  };

  // --- Rounds. The first write stream of the process grows the heap, which
  // a long-running service does once: it is checked but not measured. Then
  // each round makes kSetupRepsPerRound set-ups, one cold fit of every
  // simulator, and the shape's number of durable write streams, each on a
  // fresh WAL (query_mix reads while it writes) and followed by a recovery
  // of that WAL. Interleaving the phases spreads every metric's samples
  // over the whole run, so a change of the shared machine's speed during a
  // run reaches all metrics alike instead of one phase's.
  std::unique_ptr<Readers> readers;
  if (shape.primary == Primary::kRead) {
    readers = std::make_unique<Readers>(&in, kReadRateQps,
                                        kMaxReadWindowSeconds);
  }
  const StreamOutcome warmup =
      RunStream(in, opts, stream_dir, config.trace, readers.get(), &ops);
  std::printf("stream (warm-up) %.3f s %.0f obs/s\n", warmup.seconds,
              static_cast<double>(warmup.observations) / warmup.seconds);
  std::vector<double> setup;
  std::vector<FitRep> fits;
  std::vector<StreamOutcome> streams;
  std::vector<double> recover_s;
  // The last recovered service serves the traced run's reads.
  std::unique_ptr<FusionService> recovered;
  const int64_t rounds_start = NowNs();
  int64_t round_ns = 0;
  while (static_cast<int>(fits.size()) < kMinRounds ||
         Seconds(NowNs() - rounds_start + round_ns) <= config.seconds) {
    const int64_t round_start = NowNs();
    // No idle recovered service runs beside the set-ups and fits.
    if (recovered != nullptr) recovered->Stop();
    recovered.reset();
    for (int r = 0; r < kSetupRepsPerRound; ++r) {
      setup.push_back(shape.primary == Primary::kRead
                          ? SetupPreload(in, opts, &ops)
                          : SetupDatasets(inputs, config.seed, &ops));
    }
    fits.push_back(RunFitsOnce(inputs, &ops));
    double fit_total = 0.0;
    for (double secs : fits.back().seconds) fit_total += secs;
    std::printf("round %zu setup %.4f s fit %.3f s\n", fits.size(),
                Median(std::vector<double>(setup.end() - kSetupRepsPerRound,
                                           setup.end())),
                fit_total);
    for (int k = 0; k < shape.streams_per_round; ++k) {
      if (recovered != nullptr) recovered->Stop();
      recovered.reset();  // RunStream reuses its WAL directory
      streams.push_back(
          RunStream(in, opts, stream_dir, config.trace, readers.get(), &ops));
      const int64_t t0 = NowNs();
      auto rec = FusionService::Recover(
          stream_dir, in.dataset.num_sources(), in.dataset.num_objects(),
          in.dataset.num_values(), opts, in.dataset.features());
      recover_s.push_back(Seconds(NowNs() - t0));
      if (ops.Check(rec.ok(), "recover: FusionService::Recover")) {
        recovered = std::move(rec.ValueOrDie());
        ops.Check(SnapshotsEqual(recovered->AllSnapshots(),
                                 streams.back().final_snapshots),
                  "check: recovered snapshots differ from the live service");
      }
      const StreamOutcome& s = streams.back();
      std::vector<double> vis = s.visible_ms;
      std::printf(
          "  stream %.3f s %.0f obs/s visible p50 %.1f ms p95 %.1f ms "
          "recover %.3f s\n",
          s.seconds, static_cast<double>(s.observations) / s.seconds,
          Percentile(&vis, 0.50), Percentile(&vis, 0.95), recover_s.back());
    }
    round_ns = NowNs() - round_start;
  }
  readers.reset();
  int64_t phase_start = phase_done("rounds", run_start);

  for (size_t r = 1; r < fits.size(); ++r) {
    ops.Check(fits[r].predictions == fits[0].predictions,
              "check: fit predictions differ across repetitions");
  }
  for (const StreamOutcome& s : streams) {
    ops.Check(SnapshotsEqual(s.final_snapshots, warmup.final_snapshots),
              "check: stream snapshots differ across repetitions");
  }
  {
    auto oracle = slimfast::OfflineShardedReplay(
        in.dataset.num_sources(), in.dataset.num_objects(),
        in.dataset.num_values(), opts, AllBatches(in), in.dataset.features());
    ops.Check(oracle.ok() && SnapshotsEqual(oracle.ValueOrDie(),
                                            warmup.final_snapshots),
              "check: live snapshots differ from OfflineShardedReplay");
  }
  phase_start = phase_done("oracle", phase_start);

  // --- End-to-end metrics.
  MetricSet& e2e = report.end_to_end;
  // Every figure is a median over the rounds, so one disturbed round does
  // not move it. fit_s sums each simulator's median fit.
  double fit_s = 0.0;
  for (size_t i = 0; i < inputs.fits.size(); ++i) {
    std::vector<double> per_round;
    for (const FitRep& f : fits) per_round.push_back(f.seconds[i]);
    fit_s += Median(per_round);
  }
  e2e.Set("fit_s", fit_s, "s");
  e2e.Set("accuracy",
          shape.primary == Primary::kFit ? Mean(fits[0].accuracies)
                                         : warmup.accuracy,
          "fraction");
  std::vector<double> rate;
  std::vector<double> visible_p50;
  std::vector<double> visible_p95;
  for (const StreamOutcome& s : streams) {
    rate.push_back(static_cast<double>(s.observations) / s.seconds);
    std::vector<double> vis = s.visible_ms;
    visible_p50.push_back(Percentile(&vis, 0.50));
    visible_p95.push_back(Percentile(&vis, 0.95));
    ops.Check(PercentileHasTail(static_cast<int64_t>(vis.size()), 0.95),
              "harness: too few commits for commit_visible_p95_ms");
  }
  e2e.Set("ingest_obs_per_s", Median(rate), "obs/s");
  e2e.Set("commit_visible_p50_ms", Median(visible_p50), "ms");
  e2e.Set("commit_visible_p95_ms", Median(visible_p95), "ms");
  e2e.Set("recover_s", Median(recover_s), "s");
  e2e.Set("setup_s", Median(setup), "s");

  // The read figures: on query_mix the median over its measured write
  // streams of each stream's pooled percentiles (printed on every run,
  // reported as per-layer metrics; see README for why they are not gated).
  // The other workloads do not read; their traced run reads the recovered
  // service at the same offered rate, without writes.
  ReadSummary reads;
  int64_t err_replies = warmup.err_replies;
  for (const StreamOutcome& s : streams) err_replies += s.err_replies;
  if (shape.primary == Primary::kRead) {
    std::vector<double> p50;
    std::vector<double> p99;
    std::vector<double> late;
    for (const StreamOutcome& s : streams) {
      p50.push_back(s.reads.p50_us);
      p99.push_back(s.reads.p99_us);
      late.push_back(s.reads.late_p99_us);
      ops.Check(PercentileHasTail(s.reads.requests, 0.99),
                "harness: too few requests for query_p99_us");
    }
    reads.p50_us = Median(p50);
    reads.p99_us = Median(p99);
    reads.late_p99_us = Median(late);
    std::printf("read query_p50_us %.6g query_p99_us %.6g late_p99_us %.6g\n",
                reads.p50_us, reads.p99_us, reads.late_p99_us);
  } else if (config.trace && recovered != nullptr) {
    reads = ReadFor(recovered.get(), in, kReadRateQps, kTracedReadSeconds,
                    &ops);
  }
  double capacity_qps = 0.0;
  if (config.trace && recovered != nullptr) {
    capacity_qps = MeasureCapacity(recovered.get(), in, &ops);
  }
  const int64_t recovered_publishes =
      recovered != nullptr ? recovered->stats().publishes : 0;
  if (recovered != nullptr) recovered->Stop();
  recovered.reset();
  phase_start = phase_done("read", phase_start);
  MetricSet& pl = report.per_layer;
  if (config.trace) {
    pl.Set("query_p50_us", reads.p50_us, "us");
    pl.Set("query_p99_us", reads.p99_us, "us");
    pl.Set("query_capacity_qps", capacity_qps, "req/s");
  }

  // --- Per-layer metrics (traced pass).
  if (config.trace) {
    const TracedPass off =
        RunTracedPass(shape, inputs, fits[0], streams[0].final_snapshots,
                      config.work_dir, false, &ops);
    const TracedPass on =
        RunTracedPass(shape, inputs, fits[0], streams[0].final_snapshots,
                      config.work_dir, true, &ops);
    const std::map<std::string, double> self = SelfSeconds(on.spans);
    const std::map<std::string, double> total = TotalSeconds(on.spans);
    auto self_of = [&](const std::string& name) {
      auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    const TracedCounters& c = on.counters;
    pl.Set("core.compile.s", self_of("core.compile"), "s");
    const int64_t lookups = c.cache_hits + c.cache_misses;
    pl.Set("core.compile.cache_hit_ratio",
           lookups > 0 ? static_cast<double>(c.cache_hits) / lookups : 0.0,
           "fraction");
    pl.Set("core.optimizer.s", self_of("core.optimizer"), "s");
    pl.Set("core.optimizer.em_share",
           c.fits > 0 ? static_cast<double>(c.em_fits) / c.fits : 0.0,
           "fraction");
    pl.Set("core.learn.s", self_of("core.learn"), "s");
    for (const char* sim : {"stocks", "demos", "crowd", "genomics"}) {
      auto it = c.learn_by_sim.find(sim);
      pl.Set(std::string("core.learn.s.") + sim,
             it == c.learn_by_sim.end() ? 0.0 : it->second, "s");
    }
    pl.Set("core.learn.iterations",
           c.fits > 0 ? static_cast<double>(c.learn_iterations) / c.fits : 0.0,
           "count");
    pl.Set("core.learn.converged_ratio",
           c.fits > 0 ? static_cast<double>(c.learn_converged) / c.fits : 0.0,
           "fraction");
    pl.Set("core.infer.s", self_of("core.infer"), "s");
    pl.Set("core.session.ingest_s", self_of("core.session.ingest"), "s");
    pl.Set("core.session.touched_rows", static_cast<double>(c.touched_rows),
           "count");
    pl.Set("core.session.relearn_s", self_of("core.session.relearn"), "s");
    pl.Set("core.session.relearn_iterations",
           c.relearns > 0
               ? static_cast<double>(c.relearn_iterations) / c.relearns
               : 0.0,
           "count");
    pl.Set("core.session.relearn_warm_ratio",
           c.relearns > 0 ? static_cast<double>(c.warm_relearns) / c.relearns
                          : 0.0,
           "fraction");
    pl.Set("core.session.relearn_growth", QuarterGrowth(c.cycle_seconds),
           "ratio");
    pl.Set("core.snapshot.export_s", self_of("core.snapshot.export"), "s");
    pl.Set("core.snapshot.bytes",
           c.exports > 0 ? static_cast<double>(c.export_bytes) / c.exports
                         : 0.0,
           "bytes");
    pl.Set("storage.wal_append.s", self_of("storage.wal_append"), "s");
    pl.Set("storage.wal_append.bytes", static_cast<double>(c.wal_bytes),
           "bytes");
    pl.Set("storage.wal_sync.s", self_of("storage.wal_sync"), "s");
    pl.Set("storage.wal_sync.calls", static_cast<double>(c.sync_calls),
           "count");
    pl.Set("storage.replay.s", self_of("storage.replay"), "s");
    pl.Set("serve.router.split_s", self_of("serve.router.split"), "s");
    auto pct = [](std::vector<double> v, double p) {
      return Percentile(&v, p);
    };
    const StreamOutcome& s0 = streams[0];
    pl.Set("serve.protocol.obs_us.p50", pct(s0.obs_us, 0.50), "us");
    pl.Set("serve.protocol.obs_us.p99", pct(s0.obs_us, 0.99), "us");
    pl.Set("serve.protocol.commit_us.p50", pct(s0.commit_us, 0.50), "us");
    pl.Set("serve.protocol.commit_us.p99", pct(s0.commit_us, 0.99), "us");
    pl.Set("serve.protocol.query_us.p50", pct(c.query_us, 0.50), "us");
    pl.Set("serve.protocol.query_us.p99", pct(c.query_us, 0.99), "us");
    pl.Set("serve.protocol.posterior_us.p50", pct(c.posterior_us, 0.50), "us");
    pl.Set("serve.protocol.posterior_us.p99", pct(c.posterior_us, 0.99), "us");
    pl.Set("serve.protocol.err_replies",
           static_cast<double>(err_replies + c.err_replies),
           "count");
    pl.Set("serve.snapshot.read_us.p50", pct(c.snapshot_read_us, 0.50), "us");
    pl.Set("serve.snapshot.read_us.p99", pct(c.snapshot_read_us, 0.99), "us");
    pl.Set("serve.snapshot.publishes",
           static_cast<double>(s0.publishes + recovered_publishes), "count");
    pl.Set("serve.recover.s", self_of("serve.recover"), "s");
    pl.Set("exec.shard_imbalance", Mean(c.imbalance), "ratio");
    pl.Set("query_mix.generator_late_us.p99", reads.late_p99_us, "us");
    const double run_total = total.count("run") ? total.at("run") : 0.0;
    pl.Set("unattributed_share",
           run_total > 0.0 ? self_of("run") / run_total : 0.0, "fraction");
    pl.Set("trace_overhead_share",
           off.wall_s > 0.0 ? (on.wall_s - off.wall_s) / off.wall_s : 0.0,
           "fraction");
    report.spans = on.spans;
    phase_done("traced", phase_start);
  }

  e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  report.attempted = ops.attempted;
  report.failed = ops.failed;
  report.failures = ops.failures;
  if (config.trace) {
    report.per_layer.Set(
        "failed_frac",
        ops.attempted > 0 ? static_cast<double>(ops.failed) / ops.attempted
                          : 0.0,
        "fraction");
  }
  return report;
}

}  // namespace slimbench

#include "serve/fusion_service.h"

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <utility>

#include "obs/clock.h"
#include "obs/event_log.h"
#include "obs/registry.h"
#include "obs/slow_log.h"
#include "obs/stage.h"
#include "obs/timeseries.h"
#include "serve/durability.h"

namespace slimfast {

namespace {

/// Hands the heap pages the process has freed back to the OS; glibc keeps
/// them, per thread arena, otherwise. A service's driver thread allocates
/// in an arena of its own, so without this, memory freed before a service
/// starts (a batch fit, a stopped service) stays resident beside it.
void ReleaseFreedHeap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

/// The per-shard session configuration both the live service and the
/// offline oracle build from — one definition, so the replayed shard is
/// configured exactly like the served one.
FusionSessionOptions ShardSessionOptions(const FusionServiceOptions& options,
                                         int32_t shard) {
  FusionSessionOptions session = options.session;
  session.name += "-shard" + std::to_string(shard);
  return session;
}

/// The count-based relearn trigger: pure in the number of applied
/// batches, so live and offline replays fire at identical points.
bool RelearnDue(int64_t applied_batches, int32_t every_batches) {
  return every_batches > 0 && applied_batches % every_batches == 0;
}

/// Monotonic nanos; every serve timestamp (uptime, snapshot age,
/// staleness anchors, heartbeat, recorder buckets) reads the one
/// obs::Clock so they share an epoch and tests can pin them together.
int64_t NowNanos() { return obs::Clock::NowNanos(); }

/// The QUERY verb's latency histogram — the watchdog's query_p99 input.
/// One name shared with the line protocol's per-verb timer, so HEALTH
/// judges exactly the latency clients see.
obs::LatencyHistogram* QueryVerbHistogram() {
  static obs::LatencyHistogram* hist = obs::GetHistogram(
      "slimfast_serve_verb_latency_seconds{verb=\"QUERY\"}");
  return hist;
}

/// Registers the per-shard stage timer for (`stage`, `shard`).
obs::LatencyHistogram* StageHistogram(const char* stage, int32_t shard) {
  return obs::GetHistogram(
      std::string("slimfast_serve_stage_seconds{stage=\"") + stage +
      "\",shard=\"" + std::to_string(shard) + "\"}");
}

}  // namespace

FusionService::FusionService(FusionServiceOptions options,
                             int32_t num_sources, int32_t num_objects,
                             int32_t num_values)
    : options_(std::move(options)),
      num_sources_(num_sources),
      num_objects_(num_objects),
      num_values_(num_values),
      router_(options_.num_shards),
      shard_exec_(options_.shard_exec),
      queue_(options_.queue_capacity),
      created_ns_(NowNanos()) {
  last_tick_ns_.store(created_ns_, std::memory_order_relaxed);
}

Result<std::unique_ptr<FusionService>> FusionService::Create(
    int32_t num_sources, int32_t num_objects, int32_t num_values,
    FusionServiceOptions options, FeatureSpace features) {
  ReleaseFreedHeap();
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1, got " +
                                   std::to_string(options.num_shards));
  }
  if (options.queue_capacity == 0) options.queue_capacity = 1;
  if (options.max_coalesced_batches == 0) options.max_coalesced_batches = 1;

  std::unique_ptr<FusionService> service(new FusionService(
      std::move(options), num_sources, num_objects, num_values));
  const int32_t num_shards = service->router_.num_shards();
  service->shards_.reserve(static_cast<size_t>(num_shards));
  for (int32_t s = 0; s < num_shards; ++s) {
    SLIMFAST_ASSIGN_OR_RETURN(
        FusionSession session,
        FusionSession::Create(num_sources, num_objects, num_values,
                              ShardSessionOptions(service->options_, s),
                              features));
    Shard shard;
    shard.session = std::make_unique<FusionSession>(std::move(session));
    // Registered unconditionally (registration is one mutexed map
    // lookup per shard per service); recording stays behind
    // obs::Enabled() so a disabled process never touches them.
    shard.ingest_hist = StageHistogram("ingest", s);
    shard.relearn_hist = StageHistogram("relearn", s);
    shard.publish_hist = StageHistogram("publish", s);
    service->shards_.push_back(std::move(shard));
    service->slots_.push_back(std::make_unique<SnapshotSlot>());
  }
  // Value-initialized (all zero): nothing is pending at creation.
  service->pending_since_ns_.reset(new std::atomic<int64_t>[
      static_cast<size_t>(num_shards)]());
  const double queue_watermark = service->options_.shed_queue_watermark;
  if (queue_watermark > 0.0) {
    double batches = queue_watermark *
                     static_cast<double>(service->options_.queue_capacity);
    service->shed_queue_batches_ =
        std::max<size_t>(1, static_cast<size_t>(batches));
  }
  service->watchdog_ =
      std::make_unique<obs::SloWatchdog>(service->options_.slo);
  if (service->options_.durability.enabled()) {
    SLIMFAST_RETURN_NOT_OK(service->RecoverFromDir(features));
  }
  service->PublishInitialSnapshots();
  {
    std::lock_guard<std::mutex> lock(service->state_mu_);
    service->UpdateSessionStatsLocked();
  }
  service->driver_ = std::thread([raw = service.get()] { raw->DriverLoop(); });
  return service;
}

Result<std::unique_ptr<FusionService>> FusionService::Recover(
    std::string wal_dir, int32_t num_sources, int32_t num_objects,
    int32_t num_values, FusionServiceOptions options,
    FeatureSpace features) {
  if (wal_dir.empty()) {
    return Status::InvalidArgument("Recover needs a non-empty wal_dir");
  }
  options.durability.wal_dir = std::move(wal_dir);
  return Create(num_sources, num_objects, num_values, std::move(options),
                std::move(features));
}

Status FusionService::RecoverFromDir(const FeatureSpace& features) {
  obs::Stage stage("serve.recover");
  const std::string& dir = options_.durability.wal_dir;
  if (obs::Enabled()) {
    obs::EventLog::Global().Emit(obs::EventSeverity::kInfo, "recovery",
                                 -1, "started dir=" + dir);
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create wal dir " + dir + ": " +
                           ec.message());
  }

  Result<CheckpointManifest> manifest = ReadManifest(dir);
  if (manifest.ok()) {
    if (manifest->num_shards != router_.num_shards() ||
        manifest->num_sources != num_sources_ ||
        manifest->num_objects != num_objects_ ||
        manifest->num_values != num_values_) {
      return Status::FailedPrecondition(
          "checkpoint in " + dir +
          " was written by a service with a different topology");
    }
    applied_batches_ = static_cast<int64_t>(manifest->applied_batches);
    recovered_ = true;
    for (int32_t s = 0; s < router_.num_shards(); ++s) {
      SLIMFAST_ASSIGN_OR_RETURN(
          ShardCheckpoint checkpoint,
          ReadShardSnapshot(
              ShardSnapshotPath(dir, s, manifest->applied_batches)));
      const int32_t pending = checkpoint.state.pending_batches;
      SLIMFAST_ASSIGN_OR_RETURN(
          FusionSession session,
          FusionSession::Restore(checkpoint.store,
                                 std::move(checkpoint.state),
                                 ShardSessionOptions(options_, s),
                                 features));
      Shard& shard = shards_[static_cast<size_t>(s)];
      shard.session = std::make_unique<FusionSession>(std::move(session));
      shard.pending = pending;
      shard.last_published_fingerprint = 0;
    }
  } else if (!manifest.status().IsNotFound()) {
    return manifest.status();
  }

  // Each shard's last relearn the tail logged is installed at its point
  // instead of re-run, and the shard's relearns before that point are
  // skipped: the install overwrites everything they produce. A record at
  // the checkpoint's own point may predate the checkpoint; installing it
  // again changes nothing. Results that do not fit the service — from
  // another shard count (another partition) or sized for another
  // parameter layout — are ignored, so their shards relearn from the
  // batches as if the log held no record.
  const int32_t num_shards = router_.num_shards();
  std::vector<WalRelearnShard> logged(static_cast<size_t>(num_shards));
  install_points_.assign(static_cast<size_t>(num_shards), -1);
  SLIMFAST_RETURN_NOT_OK(ReplayWalRelearns(
      dir, static_cast<uint64_t>(applied_batches_),
      [&](const WalRelearnRecord& record) -> Status {
        if (record.num_shards != num_shards) return Status::OK();
        for (const WalRelearnShard& result : record.shards) {
          const FusionSession& session =
              *shards_[static_cast<size_t>(result.shard)].session;
          if (result.weights.size() !=
                  static_cast<size_t>(
                      session.instance()->model->layout.num_params) ||
              result.num_relearns < 1) {
            continue;
          }
          install_points_[static_cast<size_t>(result.shard)] =
              static_cast<int64_t>(record.point);
          logged[static_cast<size_t>(result.shard)] = result;
        }
        return Status::OK();
      }));
  int64_t installed = 0;
  auto install_due = [&]() -> Status {
    const int64_t point = applied_batches_.load(std::memory_order_relaxed);
    if (std::find(install_points_.begin(), install_points_.end(), point) ==
        install_points_.end()) {
      return Status::OK();
    }
    obs::Stage stage("serve.recover_install");
    std::vector<Status> statuses(static_cast<size_t>(num_shards),
                                 Status::OK());
    RunSharded(&shard_exec_, num_shards, [&](int32_t s) {
      if (install_points_[static_cast<size_t>(s)] != point) return;
      WalRelearnShard& result = logged[static_cast<size_t>(s)];
      statuses[static_cast<size_t>(s)] =
          shards_[static_cast<size_t>(s)].session->Install(
              std::move(result.weights), result.num_relearns);
      shards_[static_cast<size_t>(s)].pending = 0;
      pending_since_ns_[static_cast<size_t>(s)].store(
          0, std::memory_order_relaxed);
    });
    for (int32_t s = 0; s < num_shards; ++s) {
      if (!statuses[static_cast<size_t>(s)].ok()) {
        return Status::IOError(
            "wal relearn record of shard " + std::to_string(s) + " at " +
            std::to_string(point) +
            " does not fit: " + statuses[static_cast<size_t>(s)].ToString());
      }
      if (install_points_[static_cast<size_t>(s)] == point) ++installed;
    }
    StoreBacklog();
    return Status::OK();
  };

  // Replay the acknowledged tail with the live driver's schedule: apply
  // in sequence order, install at the logged points and relearn on the
  // every-K boundaries after them, then run the drain-equivalent final
  // relearn — so the recovered snapshots are exactly what the live
  // service serves after a drain at the crash point, and, for a log
  // without relearn records, what OfflineShardedReplay computes for the
  // acknowledged prefix.
  SLIMFAST_RETURN_NOT_OK(install_due());
  int64_t replayed = 0;
  SLIMFAST_RETURN_NOT_OK(ReplayWal(
      dir, static_cast<uint64_t>(applied_batches_),
      [&](const WalRecord& record) -> Status {
        recovered_ = true;
        ApplyBatch(record.batch);
        ++applied_batches_;
        ++replayed;
        SLIMFAST_RETURN_NOT_OK(install_due());
        CountTriggerRelearn("recover");
        return Status::OK();
      }));
  install_points_.clear();

  // The final flush is a relearn off the K cadence, so it is logged like
  // a drain's: the writer opens first.
  SLIMFAST_ASSIGN_OR_RETURN(
      wal_, WalWriter::Open(dir, options_.durability.wal,
                            static_cast<uint64_t>(applied_batches_) + 1));
  RelearnShards("recover");
  if (obs::Enabled()) {
    int64_t recomputed = 0;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      recomputed = stats_.relearns;
    }
    obs::EventLog::Global().Emit(
        obs::EventSeverity::kInfo, "recovery", -1,
        "finished applied_batches=" +
            std::to_string(applied_batches_.load()) +
            " replayed=" + std::to_string(replayed) +
            " from_checkpoint=" + (recovered_ && replayed == 0 ? "1" : "0") +
            " installed=" + std::to_string(installed) +
            " recomputed=" + std::to_string(recomputed));
  }
  return Status::OK();
}

FusionService::~FusionService() { Stop(); }

void FusionService::PublishInitialSnapshots() {
  for (size_t s = 0; s < shards_.size(); ++s) {
    slots_[s]->Store(shards_[s].session->ExportSnapshot());
    shards_[s].last_published_fingerprint =
        shards_[s].session->instance()->store.content_fingerprint();
  }
  last_publish_ns_.store(NowNanos(), std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(state_mu_);
  stats_.publishes += static_cast<int64_t>(shards_.size());
}

Status FusionService::Submit(ObservationBatch batch) {
  Command command;
  command.batch = std::move(batch);
  command.arrival_ns = NowNanos();
  if (!queue_.Push(std::move(command))) {
    return Status::FailedPrecondition("FusionService is stopped");
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  ++stats_.batches_submitted;
  return Status::OK();
}

Status FusionService::TrySubmit(ObservationBatch batch) {
  Command command;
  command.batch = std::move(batch);
  command.arrival_ns = NowNanos();
  if (!queue_.TryPush(std::move(command))) {
    if (queue_.closed()) {
      return Status::FailedPrecondition("FusionService is stopped");
    }
    if (obs::Enabled()) {
      static obs::ShardedCounter* shed =
          obs::GetCounter("slimfast_serve_shed_total");
      shed->Increment();
    }
    std::lock_guard<std::mutex> lock(state_mu_);
    ++stats_.sheds;
    return Status::OutOfRange("ingest queue is full");
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  ++stats_.batches_submitted;
  return Status::OK();
}

Status FusionService::SubmitWithBackpressure(ObservationBatch batch,
                                             int64_t* retry_after_ms) {
  if (retry_after_ms != nullptr) *retry_after_ms = 0;
  const int64_t backlog_watermark = options_.shed_backlog_watermark;
  if (shed_queue_batches_ == 0 && backlog_watermark <= 0) {
    return Submit(std::move(batch));
  }
  const bool over_queue =
      shed_queue_batches_ > 0 && queue_.size() >= shed_queue_batches_;
  const bool over_backlog =
      backlog_watermark > 0 &&
      relearn_backlog_.load(std::memory_order_relaxed) >= backlog_watermark;
  if (!over_queue && !over_backlog) {
    Status tried = TrySubmit(std::move(batch));
    if (!tried.IsOutOfRange()) {  // accepted, or stopped
      if (tried.ok() && obs::Enabled() &&
          shed_burst_.exchange(false, std::memory_order_relaxed)) {
        obs::EventLog::Global().Emit(obs::EventSeverity::kInfo,
                                     "admission", -1, "shed burst exited");
      }
      return tried;
    }
    if (retry_after_ms != nullptr) *retry_after_ms = RetryHintMs();
    if (obs::Enabled() &&
        !shed_burst_.exchange(true, std::memory_order_relaxed)) {
      obs::EventLog::Global().Emit(obs::EventSeverity::kWarn, "admission",
                                   -1, "shed burst entered reason=queue_full");
    }
    return tried;
  }
  if (queue_.closed()) {
    return Status::FailedPrecondition("FusionService is stopped");
  }
  if (obs::Enabled()) {
    static obs::ShardedCounter* busy_sheds =
        obs::GetCounter("slimfast_serve_busy_sheds_total");
    busy_sheds->Increment();
    if (!shed_burst_.exchange(true, std::memory_order_relaxed)) {
      obs::EventLog::Global().Emit(
          obs::EventSeverity::kWarn, "admission", -1,
          std::string("shed burst entered reason=") +
              (over_queue ? "queue_watermark" : "backlog_watermark"));
    }
  }
  if (retry_after_ms != nullptr) *retry_after_ms = RetryHintMs();
  std::lock_guard<std::mutex> lock(state_mu_);
  ++stats_.sheds;
  return Status::OutOfRange(
      over_queue ? "ingest shed: queue watermark crossed"
                 : "ingest shed: relearn backlog watermark crossed");
}

int64_t FusionService::RetryHintMs() const {
  // ETA until the service works off its current load: one observed
  // relearn-cycle time per queued/pending batch (plus one for the cycle
  // possibly in flight). Deliberately coarse — it is a backoff hint,
  // not a promise.
  const int64_t cycle_ns = ewma_cycle_ns_.load(std::memory_order_relaxed);
  const int64_t pressure =
      static_cast<int64_t>(queue_.size()) +
      relearn_backlog_.load(std::memory_order_relaxed);
  const double eta_ms =
      static_cast<double>(cycle_ns) * static_cast<double>(pressure + 1) * 1e-6;
  int64_t hint = static_cast<int64_t>(eta_ms) + 1;
  if (hint < 1) hint = 1;
  if (hint > 30000) hint = 30000;
  return hint;
}

Status FusionService::Drain() {
  Command command;
  command.flush = true;
  auto ack = std::make_shared<std::promise<void>>();
  std::future<void> done = ack->get_future();
  command.ack = std::move(ack);
  if (!queue_.Push(std::move(command))) {
    // Stopped — but the driver may still be applying the tail of the
    // queue. Wait for shutdown to complete so Drain's contract (all
    // prior submissions applied + published on return) still holds.
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (driver_.joinable()) driver_.join();
    return Status::OK();
  }
  done.wait();
  return Status::OK();
}

Status FusionService::Checkpoint() {
  if (!options_.durability.enabled()) {
    return Status::FailedPrecondition(
        "durability is disabled: create the service with a wal_dir to "
        "checkpoint");
  }
  Command command;
  command.checkpoint = true;
  auto ack = std::make_shared<std::promise<Status>>();
  std::future<Status> done = ack->get_future();
  command.checkpoint_ack = std::move(ack);
  if (!queue_.Push(std::move(command))) {
    return Status::FailedPrecondition("FusionService is stopped");
  }
  return done.get();
}

Status FusionService::WriteCheckpoint() {
  obs::Stage stage("serve.checkpoint");
  const std::string& dir = options_.durability.wal_dir;
  const uint64_t applied = static_cast<uint64_t>(applied_batches_);
  for (size_t s = 0; s < shards_.size(); ++s) {
    SLIMFAST_RETURN_NOT_OK(WriteShardSnapshot(
        ShardSnapshotPath(dir, static_cast<int32_t>(s), applied),
        shards_[s].session->instance()->store,
        shards_[s].session->ExportState()));
  }
  CheckpointManifest manifest;
  manifest.applied_batches = applied;
  manifest.num_shards = router_.num_shards();
  manifest.num_sources = num_sources_;
  manifest.num_objects = num_objects_;
  manifest.num_values = num_values_;
  SLIMFAST_RETURN_NOT_OK(WriteManifest(dir, manifest));
  // The manifest rename above is the commit point; everything below is
  // cleanup of state the new checkpoint superseded.
  SLIMFAST_RETURN_NOT_OK(RemoveStaleShardSnapshots(dir, applied));
  if (wal_ != nullptr) {
    SLIMFAST_RETURN_NOT_OK(wal_->Rotate());
    SLIMFAST_RETURN_NOT_OK(wal_->RemoveSegmentsBefore(applied + 1));
  }
  if (obs::Enabled()) {
    obs::EventLog::Global().Emit(
        obs::EventSeverity::kInfo, "checkpoint", -1,
        "written applied_batches=" + std::to_string(applied) +
            " shards=" + std::to_string(shards_.size()));
  }
  return Status::OK();
}

void FusionService::Stop() {
  queue_.Close();  // idempotent; fails further submissions immediately
  // Join under stop_mu_: a concurrent Stop that loses the race blocks
  // here until the winner's join completes, so *every* Stop returns
  // only after the driver has drained, flushed, and exited.
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (driver_.joinable()) {
    driver_.join();
    ReleaseFreedHeap();
  }
}

void FusionService::DriverLoop() {
  // Timed mode serves the flight recorder's sampling tick (the pull
  // model — the driver's poll wakeup is the "background thread" the
  // recorder never spawns). With observability off the loop blocks
  // indefinitely, costing zero.
  const bool timed = obs::Enabled();
  const auto poll = std::chrono::milliseconds(10);
  for (;;) {
    std::vector<Command> group =
        timed ? queue_.PopBatchFor(options_.max_coalesced_batches, poll)
              : queue_.PopBatch(options_.max_coalesced_batches);
    if (group.empty()) {
      // An empty timed pop can race with a concurrent Submit + Stop
      // (timeout on an open queue, then close): only break once the
      // queue is both closed and drained — nothing can be pushed after
      // a close, so a non-zero size here means commands still to apply,
      // which the next pop returns immediately. The untimed PopBatch
      // returns empty only when closed-and-drained, so this condition
      // is then always true.
      if (queue_.closed() && queue_.size() == 0) break;
      // Timed wakeup with nothing queued: only the recorder tick can
      // have work for us.
      last_tick_ns_.store(NowNanos(), std::memory_order_relaxed);
      MaybeRecordSample();
      continue;
    }
    // The group's batches before logged_end have been written to the
    // WAL, with outcome `logged`.
    size_t logged_end = 0;
    Status logged = Status::OK();
    for (size_t i = 0; i < group.size(); ++i) {
      Command& command = group[i];
      if (command.flush) {
        RelearnShards("drain");
        // Refresh the exported per-shard counters before acking: a
        // Drain caller reading SessionStats() right after must see the
        // post-flush state (pending 0, fresh relearn durations), not
        // the previous driver step's copy.
        {
          std::lock_guard<std::mutex> lock(state_mu_);
          UpdateSessionStatsLocked();
        }
        if (command.ack != nullptr) command.ack->set_value();
        continue;
      }
      if (command.checkpoint) {
        Status written = WriteCheckpoint();
        if (!written.ok()) {
          std::lock_guard<std::mutex> lock(state_mu_);
          stats_.last_error = "checkpoint: " + written.ToString();
        }
        if (command.checkpoint_ack != nullptr) {
          command.checkpoint_ack->set_value(std::move(written));
        }
        continue;
      }
      // Log before applying: a batch is only acknowledged (applied,
      // counted, relearned against) once it is in the WAL, so at every
      // flush and checkpoint the WAL sequence of the last record equals
      // applied_batches_ — the invariant checkpoint and recovery key
      // off. The run of batches queued back to back from here is logged
      // as one group under one fsync (group commit), and every batch of
      // the run is applied before the next flush or checkpoint.
      if (wal_ != nullptr && i >= logged_end) {
        std::vector<const ObservationBatch*> run;
        for (logged_end = i; logged_end < group.size() &&
                             !group[logged_end].flush &&
                             !group[logged_end].checkpoint;
             ++logged_end) {
          run.push_back(&group[logged_end].batch);
        }
        logged = wal_->AppendGroup(run).status();
      }
      if (!logged.ok()) {
        std::lock_guard<std::mutex> lock(state_mu_);
        ++stats_.ingest_failures;
        stats_.last_error = "wal append: " + logged.ToString();
        continue;
      }
      ApplyBatch(command.batch, command.arrival_ns);
      ++applied_batches_;
      CountTriggerRelearn("policy");
    }
    last_tick_ns_.store(NowNanos(), std::memory_order_relaxed);
    MaybeRecordSample();
    std::lock_guard<std::mutex> lock(state_mu_);
    UpdateSessionStatsLocked();
  }
  // Shutdown: everything queued has been applied; give the tail of the
  // stream its relearn and final publication.
  RelearnShards("stop");
  std::lock_guard<std::mutex> lock(state_mu_);
  UpdateSessionStatsLocked();
}

void FusionService::ApplyBatch(const ObservationBatch& batch,
                               int64_t arrival_ns) {
  obs::Stage stage("serve.apply_batch");
  if (arrival_ns == 0) arrival_ns = NowNanos();
  const std::vector<ObservationBatch> subs = router_.Split(batch);
  const int32_t num_shards = router_.num_shards();
  std::vector<Status> statuses(static_cast<size_t>(num_shards),
                               Status::OK());
  RunSharded(&shard_exec_, num_shards, [&](int32_t s) {
    const ObservationBatch& sub = subs[static_cast<size_t>(s)];
    if (sub.empty()) return;
    Shard& shard = shards_[static_cast<size_t>(s)];
    obs::Stage stage("serve.shard_ingest", shard.ingest_hist);
    Result<IngestStats> ingested = shard.session->Ingest(sub);
    if (!ingested.ok()) {
      statuses[static_cast<size_t>(s)] = ingested.status();
      return;
    }
    if (shard.pending == 0) {
      // Submit-time anchor: the batch may have queued behind a slow
      // relearn cycle, and that wait is staleness the client saw.
      pending_since_ns_[static_cast<size_t>(s)].store(
          arrival_ns, std::memory_order_relaxed);
    }
    ++shard.pending;
  });

  int64_t observations = 0;
  int64_t truths = 0;
  int64_t failures = 0;
  Status first_failure = Status::OK();
  for (int32_t s = 0; s < num_shards; ++s) {
    const ObservationBatch& sub = subs[static_cast<size_t>(s)];
    if (sub.empty()) continue;
    const Status& status = statuses[static_cast<size_t>(s)];
    if (status.ok()) {
      observations += static_cast<int64_t>(sub.observations.size());
      truths += static_cast<int64_t>(sub.truths.size());
    } else {
      ++failures;
      if (first_failure.ok()) first_failure = status;
    }
  }
  if (obs::Enabled()) {
    static obs::ShardedCounter* applied =
        obs::GetCounter("slimfast_serve_batches_applied_total");
    applied->Increment();
  }
  StoreBacklog();
  std::lock_guard<std::mutex> lock(state_mu_);
  ++stats_.batches_processed;
  stats_.observations_ingested += observations;
  stats_.truths_ingested += truths;
  if (failures > 0) {
    stats_.ingest_failures += failures;
    stats_.last_error = first_failure.ToString();
  }
}

void FusionService::CountTriggerRelearn(const char* reason) {
  if (!RelearnDue(applied_batches_.load(std::memory_order_relaxed),
                  options_.relearn_every_batches)) {
    return;
  }
  RelearnShards(reason);
  if (obs::Enabled()) {
    static obs::ShardedCounter* cycles =
        obs::GetCounter("slimfast_serve_sched_cycles_total");
    cycles->Increment();
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  ++sched_cycles_;
}

void FusionService::StoreBacklog() {
  int64_t backlog = 0;
  for (const Shard& shard : shards_) backlog += shard.pending;
  relearn_backlog_.store(backlog, std::memory_order_relaxed);
}

void FusionService::RelearnShards(const char* reason) {
  const int32_t num_shards = router_.num_shards();
  const int64_t point = applied_batches_.load(std::memory_order_relaxed);
  // A shard is due when it has pending batches and, during recovery, its
  // logged relearn is not still ahead (see install_points_).
  auto due = [&](int32_t s) {
    return shards_[static_cast<size_t>(s)].pending > 0 &&
           (install_points_.empty() ||
            install_points_[static_cast<size_t>(s)] <= point);
  };
  // Nothing due anywhere: no shard has anything to relearn or publish.
  bool any_due = false;
  for (int32_t s = 0; s < num_shards && !any_due; ++s) any_due = due(s);
  if (!any_due) return;
  obs::Stage cycle_stage("serve.relearn");
  std::vector<Status> statuses(static_cast<size_t>(num_shards),
                               Status::OK());
  std::vector<uint8_t> relearned(static_cast<size_t>(num_shards), 0);
  std::vector<uint8_t> published(static_cast<size_t>(num_shards), 0);
  std::vector<RelearnStats> shard_stats(static_cast<size_t>(num_shards));
  RunSharded(&shard_exec_, num_shards, [&](int32_t s) {
    if (!due(s)) return;
    Shard& shard = shards_[static_cast<size_t>(s)];
    const bool can_fit = shard.session->num_observations() > 0;
    if (can_fit) {
      obs::Stage stage("serve.shard_relearn", shard.relearn_hist);
      Result<RelearnStats> stats = shard.session->Relearn();
      if (!stats.ok()) {
        statuses[static_cast<size_t>(s)] = stats.status();
        return;
      }
      relearned[static_cast<size_t>(s)] = 1;
      shard_stats[static_cast<size_t>(s)] = *stats;
      shard.pending = 0;
      pending_since_ns_[static_cast<size_t>(s)].store(
          0, std::memory_order_relaxed);
    }
    // A shard whose pending batches carried only truth labels has
    // nothing to fit yet: its pending count stays up (the labels are
    // genuinely unabsorbed, matching the session's own counter), but
    // the refreshed evidence publishes once per store change.
    const uint64_t fingerprint =
        shard.session->instance()->store.content_fingerprint();
    if (can_fit || fingerprint != shard.last_published_fingerprint) {
      obs::Stage stage("serve.shard_publish", shard.publish_hist);
      slots_[static_cast<size_t>(s)]->Store(
          shard.session->ExportSnapshot());
      shard.last_published_fingerprint = fingerprint;
      published[static_cast<size_t>(s)] = 1;
    }
  });

  int64_t relearns = 0;
  int64_t publishes = 0;
  Status first_failure = Status::OK();
  for (int32_t s = 0; s < num_shards; ++s) {
    relearns += relearned[static_cast<size_t>(s)];
    publishes += published[static_cast<size_t>(s)];
    if (!statuses[static_cast<size_t>(s)].ok() && first_failure.ok()) {
      first_failure = statuses[static_cast<size_t>(s)];
    }
  }
  // Log the cycle's result once it is published, with no fsync of its
  // own: the next group commit's fsync, or the writer's close, makes it
  // durable, and recovery installs it instead of relearning.
  Status logged = Status::OK();
  if (wal_ != nullptr && relearns > 0) {
    WalRelearnRecord record;
    record.point = static_cast<uint64_t>(point);
    record.num_shards = num_shards;
    for (int32_t s = 0; s < num_shards; ++s) {
      if (relearned[static_cast<size_t>(s)] == 0) continue;
      const FusionSession& session = *shards_[static_cast<size_t>(s)].session;
      record.shards.push_back(
          WalRelearnShard{s, session.num_relearns(), session.weights()});
    }
    logged = wal_->AppendRelearn(record);
  }
  if (publishes > 0) {
    last_publish_ns_.store(NowNanos(), std::memory_order_relaxed);
  }
  if (obs::Enabled()) {
    static obs::ShardedCounter* relearns_total =
        obs::GetCounter("slimfast_serve_relearns_total");
    static obs::ShardedCounter* publishes_total =
        obs::GetCounter("slimfast_serve_publishes_total");
    relearns_total->Add(relearns);
    publishes_total->Add(publishes);
    int32_t max_iterations = 0;
    for (int32_t s = 0; s < num_shards; ++s) {
      if (relearned[static_cast<size_t>(s)] == 0) continue;
      const RelearnStats& rs = shard_stats[static_cast<size_t>(s)];
      if (rs.learn_iterations > max_iterations) {
        max_iterations = rs.learn_iterations;
      }
      obs::SlowLog::Global().Offer(
          "relearn", static_cast<int64_t>(rs.seconds * 1e9), s,
          std::string("algorithm=") +
              (rs.algorithm_used == Algorithm::kErm ? "erm" : "em") +
              " iterations=" + std::to_string(rs.learn_iterations) +
              (rs.warm_started ? " warm=1" : " warm=0"));
      if (!rs.learn_converged) {
        obs::EventLog::Global().Emit(
            obs::EventSeverity::kWarn, "relearn", s,
            std::string("non-converged algorithm=") +
                (rs.algorithm_used == Algorithm::kErm ? "erm" : "em") +
                " iterations=" + std::to_string(rs.learn_iterations) +
                " objective=" + std::to_string(rs.learn_objective));
      }
    }
    if (relearns > 0) {
      obs::TimeSeriesStore::Global()
          .Series("serve.relearn_iterations", obs::SeriesKind::kGauge)
          ->Record(NowNanos(), static_cast<double>(max_iterations));
    }
  }
  StoreBacklog();
  const double cycle_seconds = cycle_stage.End();
  if (relearns > 0) {
    // EWMA of the relearn-cycle wall time (the ERR BUSY hint's unit).
    const int64_t cycle_ns = static_cast<int64_t>(cycle_seconds * 1e9);
    const int64_t previous =
        ewma_cycle_ns_.load(std::memory_order_relaxed);
    ewma_cycle_ns_.store(
        previous == 0 ? cycle_ns : (3 * previous + cycle_ns) / 4,
        std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  stats_.relearns += relearns;
  stats_.publishes += publishes;
  if (!first_failure.ok()) {
    stats_.last_error =
        std::string(reason) + " relearn: " + first_failure.ToString();
  }
  if (!logged.ok()) {
    stats_.last_error = "wal relearn record: " + logged.ToString();
  }
}

void FusionService::MaybeRecordSample() {
  if (!obs::Enabled()) return;
  const int64_t now = NowNanos();
  if (last_sample_ns_ != 0 && now - last_sample_ns_ < 1'000'000'000) {
    return;
  }
  last_sample_ns_ = now;
  obs::TimeSeriesStore& store = obs::TimeSeriesStore::Global();
  store.Series("serve.queue_depth", obs::SeriesKind::kGauge)
      ->Record(now, static_cast<double>(queue_.size()));
  store.Series("serve.relearn_backlog", obs::SeriesKind::kGauge)
      ->Record(now, static_cast<double>(
                        relearn_backlog_.load(std::memory_order_relaxed)));
  const int64_t published_ns =
      last_publish_ns_.load(std::memory_order_relaxed);
  store.Series("serve.snapshot_age_seconds", obs::SeriesKind::kGauge)
      ->Record(now, published_ns == 0
                        ? 0.0
                        : obs::Clock::SecondsBetween(published_ns, now));
  store.Series("serve.query_p99_seconds", obs::SeriesKind::kGauge)
      ->Record(now, static_cast<double>(
                        QueryVerbHistogram()->PercentileNanos(0.99)) *
                        1e-9);
  store.Series("serve.batches_applied", obs::SeriesKind::kCounter)
      ->Record(now, static_cast<double>(
                        applied_batches_.load(std::memory_order_relaxed)));
  store.Series("serve.queries", obs::SeriesKind::kCounter)
      ->Record(now, static_cast<double>(queries_.Value()));
  static obs::ShardedCounter* relearns_total =
      obs::GetCounter("slimfast_serve_relearns_total");
  store.Series("serve.relearns", obs::SeriesKind::kCounter)
      ->Record(now, static_cast<double>(relearns_total->Value()));
  if (watchdog_ != nullptr && watchdog_->active()) EvaluateSlo();
}

obs::SloVerdict FusionService::EvaluateSlo() const {
  obs::SloInputs inputs;
  inputs.query_p99_seconds =
      static_cast<double>(QueryVerbHistogram()->PercentileNanos(0.99)) *
      1e-9;
  for (int32_t s = 0; s < router_.num_shards(); ++s) {
    const double age =
        static_cast<double>(ShardPendingAgeNanos(s)) * 1e-9;
    if (age > inputs.max_staleness_seconds) {
      inputs.max_staleness_seconds = age;
    }
  }
  const size_t capacity = queue_.capacity();
  inputs.queue_fraction =
      capacity == 0 ? 0.0
                    : static_cast<double>(queue_.size()) /
                          static_cast<double>(capacity);
  const double heartbeat_age = obs::Clock::SecondsBetween(
      last_tick_ns_.load(std::memory_order_relaxed), NowNanos());
  inputs.heartbeat_age_seconds = heartbeat_age > 0.0 ? heartbeat_age : 0.0;
  inputs.backlog_nonzero =
      relearn_backlog_.load(std::memory_order_relaxed) > 0;

  obs::SloVerdict verdict = watchdog_->Evaluate(inputs);
  for (const obs::SloTransition& t : verdict.transitions) {
    obs::EventLog::Global().Emit(
        t.breached ? obs::EventSeverity::kWarn : obs::EventSeverity::kInfo,
        "slo", -1,
        "rule=" + t.rule + (t.breached ? " breached" : " cleared") +
            " value=" + std::to_string(t.value) +
            " ceiling=" + std::to_string(t.ceiling));
    obs::GetGauge("slimfast_serve_slo_breached{rule=\"" + t.rule + "\"}")
        ->Set(t.breached ? 1.0 : 0.0);
  }
  return verdict;
}

std::string FusionService::Health() const {
  if (!obs::Enabled() || watchdog_ == nullptr || !watchdog_->active()) {
    return "OK";
  }
  const obs::SloVerdict verdict = EvaluateSlo();
  if (verdict.ok) return "OK";
  std::string reply = "DEGRADED ";
  for (size_t i = 0; i < verdict.breached_rules.size(); ++i) {
    if (i > 0) reply += ",";
    reply += verdict.breached_rules[i];
  }
  return reply;
}

ValueId FusionService::Query(ObjectId object) const {
  queries_.Increment();
  if (object < 0 || object >= num_objects_) return kNoValue;
  FusionSnapshotPtr snapshot =
      slots_[static_cast<size_t>(router_.ShardOf(object))]->Load();
  return snapshot == nullptr ? kNoValue : snapshot->Prediction(object);
}

double FusionService::QueryConfidence(ObjectId object) const {
  queries_.Increment();
  if (object < 0 || object >= num_objects_) return 0.0;
  FusionSnapshotPtr snapshot =
      slots_[static_cast<size_t>(router_.ShardOf(object))]->Load();
  return snapshot == nullptr ? 0.0 : snapshot->Confidence(object);
}

bool FusionService::QueryPosterior(ObjectId object,
                                   std::vector<ValueId>* values,
                                   std::vector<double>* probs) const {
  queries_.Increment();
  if (object < 0 || object >= num_objects_) return false;
  FusionSnapshotPtr snapshot =
      slots_[static_cast<size_t>(router_.ShardOf(object))]->Load();
  return snapshot != nullptr &&
         snapshot->PosteriorOf(object, values, probs);
}

FusionSnapshotPtr FusionService::SnapshotFor(ObjectId object) const {
  queries_.Increment();
  if (object < 0 || object >= num_objects_) return nullptr;
  return slots_[static_cast<size_t>(router_.ShardOf(object))]->Load();
}

int64_t FusionService::ShardPendingAgeNanos(int32_t shard) const {
  if (shard < 0 || shard >= router_.num_shards()) return 0;
  const int64_t since =
      pending_since_ns_[static_cast<size_t>(shard)].load(
          std::memory_order_relaxed);
  if (since == 0) return 0;
  const int64_t now = NowNanos();
  return now > since ? now - since : 0;
}

FusionSnapshotPtr FusionService::ShardSnapshot(int32_t shard) const {
  if (shard < 0 || shard >= router_.num_shards()) return nullptr;
  return slots_[static_cast<size_t>(shard)]->Load();
}

std::vector<FusionSnapshotPtr> FusionService::AllSnapshots() const {
  std::vector<FusionSnapshotPtr> snapshots;
  snapshots.reserve(slots_.size());
  for (const auto& slot : slots_) snapshots.push_back(slot->Load());
  return snapshots;
}

std::vector<ValueId> FusionService::MergedPredictions() const {
  const std::vector<FusionSnapshotPtr> snapshots = AllSnapshots();
  std::vector<ValueId> merged(static_cast<size_t>(num_objects_), kNoValue);
  for (ObjectId o = 0; o < num_objects_; ++o) {
    const FusionSnapshotPtr& snapshot =
        snapshots[static_cast<size_t>(router_.ShardOf(o))];
    if (snapshot != nullptr) {
      merged[static_cast<size_t>(o)] = snapshot->Prediction(o);
    }
  }
  return merged;
}

FusionServiceStats FusionService::stats() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  FusionServiceStats copy = stats_;
  copy.queries = queries_.Value();
  copy.uptime_seconds = obs::Clock::SecondsBetween(created_ns_, NowNanos());
  copy.recovered = recovered_;
  copy.lifetime_batches = applied_batches_.load(std::memory_order_relaxed);
  // The per-shard session state survives checkpoint/Restore, so these
  // sums are stream-lifetime values even right after a Recover().
  for (const FusionSession::Stats& shard : session_stats_) {
    copy.lifetime_relearns += shard.num_relearns;
    copy.lifetime_observations += shard.num_observations;
  }
  return copy;
}

std::vector<FusionSession::Stats> FusionService::SessionStats() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return session_stats_;
}

SchedInspection FusionService::SchedStats() const {
  SchedInspection out;
  out.queue_depth = queue_.size();
  out.queue_capacity = queue_.capacity();
  out.backlog = relearn_backlog_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(state_mu_);
  out.sheds = stats_.sheds;
  out.cycles = sched_cycles_;
  for (const FusionSession::Stats& shard : session_stats_) {
    out.pending.push_back(shard.pending_batches);
  }
  return out;
}

void FusionService::UpdateObsGauges() const {
  if (!obs::Enabled()) return;
  static obs::Gauge* queue_depth =
      obs::GetGauge("slimfast_serve_queue_depth");
  static obs::Gauge* snapshot_age =
      obs::GetGauge("slimfast_serve_snapshot_age_seconds");
  static obs::Gauge* snapshot_version =
      obs::GetGauge("slimfast_serve_snapshot_version");
  static obs::Gauge* uptime = obs::GetGauge("slimfast_serve_uptime_seconds");
  static obs::Gauge* queries = obs::GetGauge("slimfast_serve_queries");
  static obs::Gauge* backlog =
      obs::GetGauge("slimfast_serve_relearn_backlog");
  queue_depth->Set(static_cast<double>(queue_.size()));
  backlog->Set(static_cast<double>(
      relearn_backlog_.load(std::memory_order_relaxed)));
  const int64_t published_ns = last_publish_ns_.load(std::memory_order_relaxed);
  snapshot_age->Set(
      published_ns == 0
          ? 0.0
          : static_cast<double>(NowNanos() - published_ns) * 1e-9);
  snapshot_version->Set(
      static_cast<double>(applied_batches_.load(std::memory_order_relaxed)));
  uptime->Set(obs::Clock::SecondsBetween(created_ns_, NowNanos()));
  queries->Set(static_cast<double>(queries_.Value()));
}

void FusionService::UpdateSessionStatsLocked() {
  session_stats_.resize(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    session_stats_[s] = shards_[s].session->stats();
  }
}

Result<std::vector<FusionSnapshotPtr>> OfflineShardedReplay(
    int32_t num_sources, int32_t num_objects, int32_t num_values,
    const FusionServiceOptions& options,
    const std::vector<ObservationBatch>& batches, FeatureSpace features) {
  ShardRouter router(options.num_shards);
  const int32_t num_shards = router.num_shards();
  std::vector<FusionSession> sessions;
  sessions.reserve(static_cast<size_t>(num_shards));
  for (int32_t s = 0; s < num_shards; ++s) {
    SLIMFAST_ASSIGN_OR_RETURN(
        FusionSession session,
        FusionSession::Create(num_sources, num_objects, num_values,
                              ShardSessionOptions(options, s), features));
    sessions.push_back(std::move(session));
  }

  std::vector<int32_t> pending(static_cast<size_t>(num_shards), 0);
  // Every relearn point relearns every pending shard, in shard-id order.
  auto relearn_pending = [&]() -> Status {
    for (int32_t s = 0; s < num_shards; ++s) {
      FusionSession& session = sessions[static_cast<size_t>(s)];
      // Mirrors the live driver: truth-only shards stay pending until
      // they have observations to fit against.
      if (pending[static_cast<size_t>(s)] == 0 ||
          session.num_observations() == 0) {
        continue;
      }
      SLIMFAST_RETURN_NOT_OK(session.Relearn().status());
      pending[static_cast<size_t>(s)] = 0;
    }
    return Status::OK();
  };
  int64_t applied = 0;
  for (const ObservationBatch& batch : batches) {
    const std::vector<ObservationBatch> subs = router.Split(batch);
    for (int32_t s = 0; s < num_shards; ++s) {
      const ObservationBatch& sub = subs[static_cast<size_t>(s)];
      if (sub.empty()) continue;
      SLIMFAST_RETURN_NOT_OK(
          sessions[static_cast<size_t>(s)].Ingest(sub).status());
      ++pending[static_cast<size_t>(s)];
    }
    ++applied;
    if (RelearnDue(applied, options.relearn_every_batches)) {
      SLIMFAST_RETURN_NOT_OK(relearn_pending());
    }
  }
  SLIMFAST_RETURN_NOT_OK(relearn_pending());  // the Drain/Stop flush

  std::vector<FusionSnapshotPtr> snapshots;
  snapshots.reserve(static_cast<size_t>(num_shards));
  for (int32_t s = 0; s < num_shards; ++s) {
    snapshots.push_back(sessions[static_cast<size_t>(s)].ExportSnapshot());
  }
  return snapshots;
}

}  // namespace slimfast

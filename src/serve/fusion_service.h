#ifndef SLIMFAST_SERVE_FUSION_SERVICE_H_
#define SLIMFAST_SERVE_FUSION_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/fusion_session.h"
#include "core/snapshot.h"
#include "data/feature_space.h"
#include "data/observation_store.h"
#include "exec/mpsc_queue.h"
#include "exec/options.h"
#include "exec/parallel.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/watchdog.h"
#include "serve/router.h"
#include "serve/snapshot_slot.h"
#include "storage/wal.h"
#include "util/result.h"

namespace slimfast {

/// Durability configuration of a FusionService. With a non-empty
/// `wal_dir` the ingest driver appends every batch to an observation
/// WAL *before* applying it and every relearn cycle's result after it,
/// Checkpoint() persists per-shard snapshots there, and Create/Recover
/// replays snapshot-then-WAL-tail on startup — so a crashed service
/// comes back with the exact store fingerprint and the bit-identical
/// snapshots the live service would serve after a drain at the crash
/// point.
struct FusionServiceDurability {
  /// Directory for WAL segments + checkpoints; empty = in-memory only.
  std::string wal_dir;
  /// WAL fsync/rotation policy (see WalOptions).
  WalOptions wal;

  bool enabled() const { return !wal_dir.empty(); }
};

/// Configuration of a concurrent fusion service.
struct FusionServiceOptions {
  /// Shards the object universe is hash-partitioned across (>= 1). Each
  /// shard is one FusionSession; per-shard work (delta-compile, relearn,
  /// publish) fans out across shards on the service executor.
  int32_t num_shards = 4;
  /// Relearn trigger: every K processed batches, every shard with new
  /// data since its last relearn relearns and publishes. 0 disables the
  /// count trigger, leaving only the Drain/Stop flushes.
  int32_t relearn_every_batches = 1;
  /// Template for every shard's FusionSession (seed, learner options,
  /// warm start). The session name gets a per-shard suffix.
  FusionSessionOptions session;
  /// Thread budget for the shard fan-out (0 = SLIMFAST_THREADS, then 1).
  ExecOptions shard_exec;
  /// WAL + checkpoint configuration (disabled by default).
  FusionServiceDurability durability;
  /// Admission control: shed ingest once the relearn backlog (sum of
  /// per-shard pending batches) reaches this many batches (0 disables).
  /// Shedding replies ERR BUSY with a retry hint instead of blocking the
  /// producer.
  int64_t shed_backlog_watermark = 0;
  /// SLO rules the flight-recorder watchdog evaluates on the driver's
  /// sampling tick and on demand via HEALTH (all off by default; see
  /// SloWatchdogOptions). Purely observational — breaches flip gauges
  /// and emit events, never change scheduling or results.
  obs::SloWatchdogOptions slo;
};

/// Operational counters of a FusionService (see stats()).
struct FusionServiceStats {
  /// Batches accepted into the ingest queue so far.
  int64_t batches_submitted = 0;
  /// Batches fully applied to their shards (ingest done; relearns follow
  /// the policy).
  int64_t batches_processed = 0;
  /// Observations absorbed across all shards.
  int64_t observations_ingested = 0;
  /// Truth labels absorbed across all shards.
  int64_t truths_ingested = 0;
  /// Per-shard relearns completed.
  int64_t relearns = 0;
  /// Snapshot publications (one per shard relearn, plus the initial
  /// empty snapshots).
  int64_t publishes = 0;
  /// Batches whose ingest failed validation on some shard (the shard is
  /// left unchanged; see last_error).
  int64_t ingest_failures = 0;
  /// Queries served since Create (wait-free sharded counter).
  int64_t queries = 0;
  /// Batches rejected by admission control or a full-queue TrySubmit
  /// (the producer kept its data; see SubmitWithBackpressure).
  int64_t sheds = 0;
  /// Message of the most recent ingest/relearn failure ("" when none).
  std::string last_error;

  // --- Recovery-aware fields ---------------------------------------------
  //
  // The counters above are *process-scoped*: they count work done by
  // this FusionService object, which after a Recover() includes the
  // replayed WAL tail but not the checkpointed prefix. The `lifetime_*`
  // counters below are *stream-scoped*: they are reconstructed from
  // durable state (the WAL sequence and the per-shard session state the
  // checkpoint carries), so they keep counting monotonically across
  // crash/recover cycles instead of silently restarting near zero.

  /// Seconds since this service object was created (includes any
  /// recovery replay time).
  double uptime_seconds = 0.0;
  /// True when Create restored a checkpoint and/or replayed WAL records.
  bool recovered = false;
  /// Batches applied over the stream's lifetime — equal to the WAL
  /// sequence of the last applied batch, so it survives Recover() by
  /// construction.
  int64_t lifetime_batches = 0;
  /// Relearns completed over the stream's lifetime (summed from the
  /// per-shard session state, which checkpoints carry).
  int64_t lifetime_relearns = 0;
  /// Observations absorbed over the stream's lifetime (summed from the
  /// per-shard stores, which checkpoints carry).
  int64_t lifetime_observations = 0;
};

/// Consistent snapshot of the relearn + admission-control state, as
/// reported by the SCHED verb: the relearn cycles run, the live queue
/// depth and relearn backlog, the shed count, and each shard's pending
/// batches.
struct SchedInspection {
  /// Count-trigger relearn cycles run so far.
  int64_t cycles = 0;
  /// Batches waiting in the ingest queue right now.
  size_t queue_depth = 0;
  /// Capacity of the ingest queue, in batches.
  size_t queue_capacity = 0;
  /// Sum of per-shard pending batches (the relearn backlog).
  int64_t backlog = 0;
  /// Batches shed by admission control / full-queue TrySubmit.
  int64_t sheds = 0;
  /// Batches each shard has ingested but not yet absorbed by a relearn,
  /// indexed by shard id.
  std::vector<int32_t> pending;
};

/// A concurrent fusion serving layer: sharded ingest/relearn behind a
/// bounded queue, wait-free snapshot queries in front.
///
/// The object universe is hash-partitioned across N `FusionSession`s
/// (`ShardRouter`). Producers `Submit` observation batches into a
/// bounded MPSC queue; a background driver pops them (coalescing
/// bursts), splits each batch by shard, and fans the per-shard
/// Ingest → Relearn → Publish work across the exec thread pool. Each
/// relearn exports an immutable `FusionSnapshot` that is swapped into
/// the shard's `SnapshotSlot`; `Query` routes to the owning shard and
/// reads the current snapshot through one atomic pointer load — queries
/// never take an ingest-path lock and keep being served, from the last
/// published snapshot, while shards are mid-relearn.
///
/// **Sharded-replay determinism contract.** Routing is a pure function
/// of (object id, shard count), batches are applied in submission order,
/// and every relearn trigger is a function of the batch index alone.
/// Each shard therefore computes exactly what a single offline
/// `FusionSession`, fed that shard's slice of the stream on one thread,
/// computes — bit for bit, at any thread count and under any concurrent
/// query load (`OfflineShardedReplay` is the oracle; with num_shards = 1
/// it *is* the plain offline single-session run of the full stream).
/// Every relearn trigger relearns every shard with pending data, so no
/// query, clock or thread timing reaches a shard's model.
///
/// Thread roles: any number of producers (Submit/TrySubmit/Drain), any
/// number of query threads (Query*/ShardSnapshot — wait-free), one
/// internal driver. Stop() (or destruction) drains the queue, runs a
/// final relearn over pending data, publishes, and joins the driver.
class FusionService {
 public:
  /// Builds a service over a fixed id universe, spawns the ingest
  /// driver, and publishes an initial (model-free) snapshot per shard so
  /// queries are valid immediately. Fails on invalid dimensions or a
  /// session configuration the incremental engine rejects (e.g. the
  /// copying extension).
  static Result<std::unique_ptr<FusionService>> Create(
      int32_t num_sources, int32_t num_objects, int32_t num_values,
      FusionServiceOptions options = {},
      FeatureSpace features = FeatureSpace());

  /// Create with durability rooted at `wal_dir`: restores the latest
  /// checkpoint (if any), replays the WAL tail — installing each shard's
  /// last logged relearn at its point and relearning on the live
  /// driver's every-K schedule after it — runs the drain-equivalent
  /// final relearn, and resumes logging. The recovered snapshots are
  /// bit-identical to the live service's after a drain at the crash
  /// point; for a log without relearn records, to `OfflineShardedReplay`
  /// over its acknowledged prefix. On a fresh directory this is just a
  /// durable Create.
  static Result<std::unique_ptr<FusionService>> Recover(
      std::string wal_dir, int32_t num_sources, int32_t num_objects,
      int32_t num_values, FusionServiceOptions options = {},
      FeatureSpace features = FeatureSpace());

  /// Stops the service (drains + final publish) if still running.
  ~FusionService();

  FusionService(const FusionService&) = delete;
  FusionService& operator=(const FusionService&) = delete;

  // --- Producer side ---------------------------------------------------

  /// Enqueues one batch, blocking while the queue is full. Fails only
  /// after Stop(). Validation happens at ingest: a bad batch surfaces in
  /// stats().ingest_failures / last_error, never crashes the driver.
  Status Submit(ObservationBatch batch);

  /// Non-blocking Submit; OutOfRange when the queue is full (shed load).
  Status TrySubmit(ObservationBatch batch);

  /// Submit with admission control: when the relearn backlog reaches
  /// FusionServiceOptions::shed_backlog_watermark — or the queue is
  /// outright full — the batch is shed with OutOfRange and
  /// `*retry_after_ms` (if non-null) is set to a backoff hint derived from
  /// the observed relearn-cycle time and the current queue + backlog
  /// depth. With admission control disabled this is exactly Submit
  /// (blocking backpressure, no hint). The COMMIT verb's ERR BUSY reply
  /// is built on this.
  Status SubmitWithBackpressure(ObservationBatch batch,
                                int64_t* retry_after_ms);

  /// Blocks until everything submitted before this call is applied,
  /// relearned (pending shards), and published. A drain is an ordered
  /// event in the ingest stream, so replays that drain at the same
  /// points reproduce the same snapshots.
  Status Drain();

  /// Queues a checkpoint behind everything already submitted and blocks
  /// until the driver has written it: per-shard snapshots of the store
  /// + session state, then the manifest (the atomic commit), then
  /// truncation of the WAL segments the snapshots made obsolete.
  /// FailedPrecondition when durability is disabled or the service is
  /// stopped.
  Status Checkpoint();

  /// Graceful shutdown: no further submissions, remaining queue applied,
  /// pending shards relearned + published, driver joined. Idempotent.
  void Stop();

  // --- Query side (wait-free, any thread) ------------------------------

  /// Current MAP estimate for `object` (kNoValue when unknown/invalid).
  ValueId Query(ObjectId object) const;

  /// Top posterior probability behind Query (0 when unknown).
  double QueryConfidence(ObjectId object) const;

  /// Copies `object`'s posterior out of the owning shard's snapshot;
  /// false when the object has none yet.
  bool QueryPosterior(ObjectId object, std::vector<ValueId>* values,
                      std::vector<double>* probs) const;

  /// The owning shard's current snapshot for `object` (for callers that
  /// read several fields consistently); counts as one query.
  FusionSnapshotPtr SnapshotFor(ObjectId object) const;

  /// Current snapshot of shard `shard` (null on out-of-range index).
  FusionSnapshotPtr ShardSnapshot(int32_t shard) const;

  /// Current snapshots of every shard, indexed by shard id.
  std::vector<FusionSnapshotPtr> AllSnapshots() const;

  /// Per-object MAP estimates assembled from every shard's current
  /// snapshot (kNoValue where unknown) — the service-wide view used for
  /// accuracy evaluation.
  std::vector<ValueId> MergedPredictions() const;

  /// Wall-clock nanoseconds the oldest unabsorbed batch of `shard` has
  /// been waiting for a relearn, measured from the moment the batch was
  /// *accepted* by Submit — so queueing delay behind a slow relearn
  /// cycle counts, exactly like a client's view of snapshot staleness.
  /// 0 when nothing is pending or the shard index is out of range.
  /// Wait-free — one relaxed atomic load — so load generators can
  /// sample snapshot staleness from reader threads.
  int64_t ShardPendingAgeNanos(int32_t shard) const;

  // --- Introspection ----------------------------------------------------

  const ShardRouter& router() const { return router_; }
  int32_t num_shards() const { return router_.num_shards(); }
  int32_t num_sources() const { return num_sources_; }
  int32_t num_objects() const { return num_objects_; }
  int32_t num_values() const { return num_values_; }

  /// Operational counters (consistent copy; cheap).
  FusionServiceStats stats() const;

  /// Per-shard session counters as of the last completed driver step.
  std::vector<FusionSession::Stats> SessionStats() const;

  /// Relearn + admission-control state for the SCHED verb: cycles run,
  /// queue depth, relearn backlog, shed count, and per-shard pending
  /// batches.
  SchedInspection SchedStats() const;

  /// Refreshes the registry gauges that are cheaper to compute on
  /// demand than to maintain on the hot path (queue depth, snapshot
  /// age/version, uptime, query count). The METRICS verb calls this
  /// right before rendering; no-op when observability is off.
  void UpdateObsGauges() const;

  /// The HEALTH verb's answer: "OK" when no SLO rule is latched (or no
  /// rule is configured / observability is off), otherwise
  /// "DEGRADED <rule>[,<rule>...]". Evaluates the watchdog against live
  /// inputs, so a breach shows up here even between driver sampling
  /// ticks; transitions it causes emit events exactly like the tick's.
  std::string Health() const;

 private:
  /// One queue entry: a batch, a flush marker Drain waits on, or a
  /// checkpoint request.
  struct Command {
    ObservationBatch batch;
    /// NowNanos() at the accepting Submit — the staleness clock's
    /// anchor for this batch (see ShardPendingAgeNanos).
    int64_t arrival_ns = 0;
    bool flush = false;
    /// Fulfilled by the driver once the flush (and everything queued
    /// before it) is applied and published.
    std::shared_ptr<std::promise<void>> ack;
    bool checkpoint = false;
    /// Fulfilled with the checkpoint's outcome.
    std::shared_ptr<std::promise<Status>> checkpoint_ack;
  };

  /// Per-shard mutable state, owned by the driver.
  struct Shard {
    std::unique_ptr<FusionSession> session;
    /// Batches ingested but not yet absorbed by a relearn. Matches the
    /// session's own pending_batches counter: truth-only ingests stay
    /// pending until the shard has observations to fit against.
    int32_t pending = 0;
    /// Store fingerprint of the last published snapshot, so evidence
    /// updates that cannot relearn yet (truth-only shards) publish
    /// exactly once per change.
    uint64_t last_published_fingerprint = 0;
    /// Registry-owned per-shard stage timers
    /// (slimfast_serve_stage_seconds{stage=...,shard=...}); registered
    /// at Create, recorded only while obs::Enabled().
    obs::LatencyHistogram* ingest_hist = nullptr;
    obs::LatencyHistogram* relearn_hist = nullptr;
    obs::LatencyHistogram* publish_hist = nullptr;
  };

  FusionService(FusionServiceOptions options, int32_t num_sources,
                int32_t num_objects, int32_t num_values);

  void DriverLoop();
  /// Restores checkpoint + WAL tail from the durability directory and
  /// opens the WAL writer. Runs on the Create thread, before the driver
  /// starts.
  Status RecoverFromDir(const FeatureSpace& features);
  /// Writes one checkpoint (driver thread only; see Checkpoint()).
  Status WriteCheckpoint();
  /// Applies one batch to its shards (parallel fan-out). `arrival_ns`
  /// is the batch's Submit-time timestamp (0 = "now", used by recovery
  /// replay); it anchors the shard staleness clock so queueing delay is
  /// part of the reported snapshot staleness.
  void ApplyBatch(const ObservationBatch& batch, int64_t arrival_ns = 0);
  /// Relearns + publishes every shard with pending data, fanned out in
  /// shard-id order on the shard executor. Every relearn point runs it:
  /// the every-K count trigger, drain, stop and recovery. `reason` feeds
  /// error messages.
  void RelearnShards(const char* reason);
  /// The count trigger, shared by the driver loop and recovery: at every
  /// K-th applied batch, one relearn cycle (RelearnShards). `reason`
  /// feeds error messages.
  void CountTriggerRelearn(const char* reason);
  /// The driver's ~1 Hz flight-recorder tick: records the serve
  /// time-series and evaluates the watchdog. Rate-limited internally;
  /// no-op when observability is off. Driver thread only.
  void MaybeRecordSample();
  /// Gathers live SLO inputs, evaluates the watchdog, and turns any
  /// rule transitions into events + slo_breached gauge flips. Callers
  /// must check watchdog_/active()/obs::Enabled() first.
  obs::SloVerdict EvaluateSlo() const;
  /// Backoff hint for shed producers: the observed relearn-cycle time
  /// scaled by the current queue + backlog pressure, clamped to
  /// [1ms, 30s].
  int64_t RetryHintMs() const;
  /// Stores the sum of per-shard pending batches into relearn_backlog_.
  void StoreBacklog();
  void PublishInitialSnapshots();
  void UpdateSessionStatsLocked();

  FusionServiceOptions options_;
  int32_t num_sources_;
  int32_t num_objects_;
  int32_t num_values_;
  ShardRouter router_;

  std::vector<Shard> shards_;          // driver-owned after Create
  std::vector<std::unique_ptr<SnapshotSlot>> slots_;  // shared with readers
  Executor shard_exec_;

  BoundedMpscQueue<Command> queue_;
  std::thread driver_;

  /// Non-null iff durability is enabled. Owned by the driver after
  /// Create (the recovery path touches it before the driver starts).
  /// Every relearn cycle appends its result as a relearn record.
  std::unique_ptr<WalWriter> wal_;
  /// Recovery only (empty otherwise): per shard, the point of its last
  /// relearn the WAL tail logged, or -1. RelearnShards leaves a shard
  /// alone before that point, where recovery installs the logged result.
  std::vector<int64_t> install_points_;
  /// Batches applied over the service's lifetime, including batches
  /// replayed during recovery — by construction equal to the WAL
  /// sequence of the last applied batch. Written only by the driver
  /// (and the Create-thread recovery path before the driver starts);
  /// atomic so stats()/UpdateObsGauges can read it from any thread.
  std::atomic<int64_t> applied_batches_{0};
  /// obs::Clock::NowNanos() at construction; feeds
  /// FusionServiceStats::uptime_seconds (through the same clock every
  /// other serve timestamp reads, so tests can pin it).
  int64_t created_ns_ = 0;
  /// Set during RecoverFromDir (before the driver starts, so plain
  /// bool): a checkpoint was restored and/or WAL records were replayed.
  bool recovered_ = false;
  /// steady_clock nanos of the most recent snapshot publication (any
  /// shard); 0 before the first. Feeds the snapshot-age gauge.
  mutable std::atomic<int64_t> last_publish_ns_{0};

  /// Sum of per-shard pending batches, maintained by the driver after
  /// every apply/relearn step; read by admission control and SCHED.
  std::atomic<int64_t> relearn_backlog_{0};
  /// EWMA of the relearn-cycle wall time, feeding the ERR BUSY retry
  /// hint (0 until the first relearn).
  std::atomic<int64_t> ewma_cycle_ns_{0};
  /// steady_clock nanos when each shard's pending count went 0 -> 1
  /// (0 = nothing pending): the wait-free per-shard staleness signal
  /// behind ShardPendingAgeNanos.
  std::unique_ptr<std::atomic<int64_t>[]> pending_since_ns_;

  /// The SLO watchdog (always constructed; inert unless some ceiling in
  /// options_.slo is set). Internally synchronized — evaluated from the
  /// driver tick and from HEALTH concurrently.
  std::unique_ptr<obs::SloWatchdog> watchdog_;
  /// obs::Clock nanos of the driver loop's most recent completed
  /// iteration — the heartbeat behind the relearn_stall rule.
  std::atomic<int64_t> last_tick_ns_{0};
  /// Clock nanos of the last flight-recorder sample; driver-only, so
  /// plain. 0 = never sampled.
  int64_t last_sample_ns_ = 0;
  /// True while admission control is inside a shed burst; flips emit
  /// the burst-entered/exited events exactly once per burst.
  mutable std::atomic<bool> shed_burst_{false};

  mutable std::mutex state_mu_;
  FusionServiceStats stats_;                       // guarded by state_mu_
  std::vector<FusionSession::Stats> session_stats_;  // guarded by state_mu_
  /// Count-trigger relearn cycles run, exported to SchedStats().
  int64_t sched_cycles_ = 0;  // guarded by state_mu_

  /// Serializes driver join: every path that needs shutdown to have
  /// completed (Stop, Drain-after-stop, the destructor) joins under
  /// this mutex, so a loser of a concurrent Stop race still blocks
  /// until the driver is gone instead of returning early.
  std::mutex stop_mu_;

  /// Query counter: sharded so concurrent readers do not contend on
  /// one cache line (the query path must stay wait-free). Always on —
  /// it backs stats().queries, not just METRICS.
  mutable obs::ShardedCounter queries_;
};

/// The determinism oracle for the service: replays `batches`, in order,
/// through one *offline* FusionSession per shard — same router, same
/// relearn schedule, one final flush at the end (exactly what
/// Submit… + Drain + Stop produces) — and returns the final per-shard
/// snapshots. `FusionService` must match these bit for bit; with
/// `options.num_shards == 1` the result is the plain single-session
/// offline run of the whole stream.
Result<std::vector<FusionSnapshotPtr>> OfflineShardedReplay(
    int32_t num_sources, int32_t num_objects, int32_t num_values,
    const FusionServiceOptions& options,
    const std::vector<ObservationBatch>& batches,
    FeatureSpace features = FeatureSpace());

}  // namespace slimfast

#endif  // SLIMFAST_SERVE_FUSION_SERVICE_H_

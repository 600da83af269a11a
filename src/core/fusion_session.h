#ifndef SLIMFAST_CORE_FUSION_SESSION_H_
#define SLIMFAST_CORE_FUSION_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/compiled_instance.h"
#include "core/options.h"
#include "core/slimfast.h"
#include "core/snapshot.h"
#include "data/feature_space.h"
#include "data/observation_store.h"
#include "exec/parallel.h"
#include "util/result.h"

namespace slimfast {

/// Configuration of a long-lived incremental fusion session.
struct FusionSessionOptions {
  /// Model, learner, and execution configuration shared with the batch
  /// facade. `exec.threads` sizes the session's executor, which shards
  /// both delta-compilation and relearning.
  SlimFastOptions slimfast;
  /// Session name, used as the name of its SlimFast learner.
  std::string name = "fusion-session";
  /// Seed for every relearn, so a session's trajectory is a pure function
  /// of its ingest sequence.
  uint64_t seed = 42;
};

/// Per-ingest timing and size statistics.
struct IngestStats {
  int64_t batch_observations = 0;
  int64_t batch_truths = 0;
  /// Rows DeltaCompile actually re-derived (batch-touched objects with
  /// observations; everything else was carried over).
  int32_t touched_objects = 0;
  /// Wall-clock of the store splice + delta compilation.
  double seconds = 0.0;
};

/// Per-relearn statistics.
struct RelearnStats {
  Algorithm algorithm_used = Algorithm::kErm;
  /// True when this relearn refined the previous weights on the short
  /// schedule (false for the first fit).
  bool warm_started = false;
  int32_t num_train_objects = 0;
  double seconds = 0.0;
  /// Learner iterations actually run (ERM epochs or EM iterations).
  int32_t learn_iterations = 0;
  /// Whether the learner met its tolerance before exhausting its budget.
  bool learn_converged = false;
  /// The learner's final objective (see SlimFastFit::learn_objective).
  double learn_objective = 0.0;
};

/// A long-lived incremental fusion engine: `Ingest(batch)` absorbs new
/// observations by delta-compiling the instance (touched rows only),
/// `Relearn()` refines the model from the previous weights on a short
/// schedule, and `Query(object)` serves the current estimate — the
/// serving-path counterpart of the one-shot `SlimFast::Run`.
///
/// The session keeps a single `CompiledInstance` alive across its life.
/// Its `ObservationStore` is the session's only copy of the claim history
/// and ground truth; relearning reads the store directly. Each ingest
/// extends the instance through `ObservationStore::AppendBatch` and
/// `DeltaCompile`: re-deriving a row's per-candidate term expressions and
/// resolving its claims are paid only for the rows the batch touches,
/// while runs of untouched objects and rows are carried over as block
/// copies with their offsets rebased in bulk. The result is bitwise-equal
/// to recompiling the concatenated history from scratch (asserted in
/// tests and re-checked after every chunk by `slimfast_cli replay`).
/// Every relearn after the first warm-starts from the previous fit
/// (`SlimFast::FitCompiled`), cutting the epoch budget to a quarter of a
/// cold run (`WarmBudget`).
///
/// Determinism: with a fixed options seed, the sequence of predictions is
/// a pure function of the ingest sequence — delta compilation is sharded
/// but slot-per-row, and relearning inherits the exec layer's fixed-shard
/// reduce, so `exec.threads` never changes any estimate.
///
/// The session is single-threaded from the caller's perspective (like an
/// `Executor`, it is driven from one thread; internal stages fan out).
class FusionSession {
 public:
  /// Creates a session over a fixed id universe (the dimensions every
  /// batch is validated against) with optional per-source features.
  /// `features` must be sized to `num_sources` (or default-constructed,
  /// which the session resizes). The initial instance is the compiled
  /// empty store; the first Ingest is already a delta.
  static Result<FusionSession> Create(int32_t num_sources,
                                      int32_t num_objects,
                                      int32_t num_values,
                                      FusionSessionOptions options = {},
                                      FeatureSpace features = FeatureSpace());

  /// The relearned-model state and lifetime counters of a session —
  /// everything a checkpoint must carry beyond the observation store for
  /// Restore() to resume the exact warm-start trajectory (the next
  /// relearn refines `weights`, and `num_ingested_batches` keeps the
  /// serving layer's every-K relearn phase aligned). Plain vectors of
  /// primitives so the storage layer can serialize it without knowing
  /// any model type. Wall-clock fields are deliberately excluded.
  struct State {
    /// Learned model weights — the warm-start seed of the next relearn
    /// (empty until the first relearn; layout is learner-defined).
    std::vector<double> weights;
    /// Per-object MAP estimates (kNoValue where unknown).
    std::vector<ValueId> predictions;
    /// Per-source accuracy estimates of the last relearn.
    std::vector<double> source_accuracies;
    /// CSR-style offsets into posterior_values/posterior_probs: object
    /// o's posterior spans [posterior_begin[o], posterior_begin[o+1]).
    std::vector<int64_t> posterior_begin;
    /// Candidate values, concatenated per object (see posterior_begin).
    std::vector<ValueId> posterior_values;
    /// Posterior probabilities, parallel to posterior_values.
    std::vector<double> posterior_probs;
    /// Batches ingested over the session's lifetime (keeps the serving
    /// layer's every-K relearn phase aligned across Restore()).
    int32_t num_ingested_batches = 0;
    /// Relearns completed over the session's lifetime.
    int32_t num_relearns = 0;
    /// Batches ingested since the last relearn (unabsorbed evidence).
    int32_t pending_batches = 0;

    bool operator==(const State&) const = default;
  };

  /// Copies out the session's current State (see State).
  State ExportState() const;

  /// Rebuilds a session from a checkpointed store + State so that every
  /// subsequent Ingest/Relearn/Query is bit-identical to the session
  /// that exported them. `store` is compiled directly: its canonical
  /// order keeps every object's claims in arrival order, the only order
  /// compilation and learning observe, so the restored instance is
  /// bitwise-equal to the exporting session's. InvalidArgument on a
  /// structurally inconsistent `state`.
  static Result<FusionSession> Restore(const ObservationStore& store,
                                       State state,
                                       FusionSessionOptions options = {},
                                       FeatureSpace features = FeatureSpace());

  /// Absorbs one batch: validates it, splices the columnar store, and
  /// delta-compiles the touched rows (sharded across the session
  /// executor). On error the session is unchanged. Does not relearn —
  /// callers batch several ingests per relearn under heavy traffic.
  Result<IngestStats> Ingest(const ObservationBatch& batch);

  /// Refits the model on everything ingested so far: all objects with
  /// ingested truth are training data. Warm-starts from the previous
  /// weights once a model exists. Fails if nothing has been ingested yet.
  /// Ends with Install(the fitted weights, num_relearns() + 1).
  Result<RelearnStats> Relearn();

  /// Installs a relearn's result without re-running it: sets the weights
  /// and the relearn count, derives the source accuracies (Eq. 3),
  /// rescores the current instance's posteriors (Eq. 4) and clears
  /// pending. Relearn() ends with this step, so installing the weights a
  /// relearn produced, on the instance it was fit on, reproduces that
  /// relearn bit for bit. InvalidArgument on weights mis-sized for the
  /// parameter layout or a relearn count below 1.
  Status Install(std::vector<double> weights, int32_t num_relearns);

  /// Current estimate for `object`: the last relearned model's MAP value,
  /// or kNoValue when the object has no observations (or nothing has been
  /// relearned yet).
  ValueId Query(ObjectId object) const;

  /// Point-in-time session counters — the operational telemetry a
  /// serving layer exports (FusionService stats, the serve line
  /// protocol, loadgen reports). Reading them is cheap and allocation-
  /// free; like every other session call they must be made from the one
  /// thread driving the session.
  struct Stats {
    /// Wall-clock seconds of the most recent Relearn() call; 0.0 before
    /// the first relearn.
    double last_relearn_seconds = 0.0;
    /// Batches ingested since the last relearn — the staleness the next
    /// Relearn() will absorb. Every Ingest() increments it; every
    /// successful Relearn() resets it to 0.
    int32_t pending_batches = 0;
    /// Completed relearns over the session's lifetime.
    int32_t num_relearns = 0;
    /// Ingested batches over the session's lifetime.
    int32_t num_ingested_batches = 0;
    /// Observations accumulated over the session's lifetime.
    int64_t num_observations = 0;
  };

  /// Current counters (see Stats for field semantics).
  Stats stats() const;

  /// Packages the session's current state as an immutable snapshot:
  /// predictions, per-object posteriors and confidence, source
  /// accuracies, weights, claim counts, and identity (version = relearn
  /// count, store fingerprint). Before the first relearn the snapshot
  /// carries evidence counts but no model (has_model() is false).
  ///
  /// The snapshot shares nothing mutable with the session — publishing
  /// it to concurrent readers (the FusionService's atomic slot swap) is
  /// safe while the session keeps ingesting and relearning.
  FusionSnapshotPtr ExportSnapshot() const;

  /// All current estimates, indexed by object (kNoValue where unknown).
  const std::vector<ValueId>& predictions() const { return predictions_; }

  /// Source-accuracy estimates of the last relearned model (empty before
  /// the first relearn).
  const std::vector<double>& source_accuracies() const {
    return source_accuracies_;
  }

  /// Weight vector of the last relearn (empty before the first); the
  /// vector warm starts resume from.
  const std::vector<double>& weights() const { return weights_; }

  /// The live compiled instance (never null after Create).
  const std::shared_ptr<const CompiledInstance>& instance() const {
    return instance_;
  }

  int64_t num_observations() const {
    return instance_->store.num_observations();
  }
  int32_t num_ingested_batches() const { return num_ingested_batches_; }
  int32_t num_relearns() const { return num_relearns_; }
  bool has_model() const { return num_relearns_ > 0; }

 private:
  explicit FusionSession(FusionSessionOptions options);

  /// Validates the universe, features, and options, and compiles `store`
  /// into the session's instance; the shared tail of Create and Restore.
  static Result<FusionSession> Open(ObservationStore store,
                                    FusionSessionOptions options,
                                    FeatureSpace features);

  /// Recomputes the MAP predictions and the flattened per-object
  /// posteriors from the installed model, scoring each row once; called
  /// by Install.
  void RefreshPosteriors(const SlimFastModel& model);

  FusionSessionOptions options_;

  std::unique_ptr<Executor> exec_;
  std::unique_ptr<SlimFast> slimfast_;

  // The compiled history; instance_->store holds every ingested claim
  // and truth label.
  std::shared_ptr<const CompiledInstance> instance_;

  // Last-relearn outputs.
  std::vector<double> weights_;
  std::vector<ValueId> predictions_;
  std::vector<double> source_accuracies_;

  // Flattened per-object posteriors of the last relearned model (CSR over
  // objects; empty slices for unobserved objects), refreshed by Relearn
  // and copied out by ExportSnapshot.
  std::vector<int64_t> posterior_begin_;
  std::vector<ValueId> posterior_values_;
  std::vector<double> posterior_probs_;

  int32_t num_ingested_batches_ = 0;
  int32_t num_relearns_ = 0;
  int32_t pending_batches_ = 0;
  double last_relearn_seconds_ = 0.0;
};

}  // namespace slimfast

#endif  // SLIMFAST_CORE_FUSION_SESSION_H_

#include "core/fusion_session.h"

#include <utility>

#include "obs/registry.h"
#include "obs/stage.h"
#include "util/math.h"

namespace slimfast {

FusionSession::FusionSession(FusionSessionOptions options)
    : options_(std::move(options)) {}

Result<FusionSession> FusionSession::Create(int32_t num_sources,
                                            int32_t num_objects,
                                            int32_t num_values,
                                            FusionSessionOptions options,
                                            FeatureSpace features) {
  if (num_sources < 0 || num_objects < 0 || num_values < 1) {
    return Status::InvalidArgument(
        "session dimensions must be non-negative (num_values >= 1)");
  }
  // Start from the empty universe; every Ingest (including the first) is
  // then a uniform delta step.
  SLIMFAST_ASSIGN_OR_RETURN(
      Dataset empty,
      DatasetBuilder(options.name, num_sources, num_objects, num_values)
          .Build());
  return Open(ObservationStore::FromDataset(empty), std::move(options),
              std::move(features));
}

Result<FusionSession> FusionSession::Open(ObservationStore store,
                                          FusionSessionOptions options,
                                          FeatureSpace features) {
  if (store.num_values() < 1) {
    return Status::InvalidArgument("session universe needs num_values >= 1");
  }
  if (features.num_sources() == 0 && store.num_sources() > 0) {
    features = FeatureSpace(store.num_sources());
  }
  if (features.num_sources() != store.num_sources()) {
    return Status::InvalidArgument(
        "feature space is sized for " +
        std::to_string(features.num_sources()) + " sources, session has " +
        std::to_string(store.num_sources()));
  }
  if (options.slimfast.model.use_copying_features) {
    // DeltaCompile rejects the copying extension (pair selection is a
    // global scan), so every Ingest of such a session would fail; fail
    // here, next to the misconfiguration, instead.
    return Status::InvalidArgument(
        "FusionSession does not support the copying extension: delta "
        "compilation cannot maintain globally selected copy pairs");
  }

  FusionSession session(std::move(options));
  session.exec_ =
      std::make_unique<Executor>(session.options_.slimfast.exec);
  session.slimfast_ = std::make_unique<SlimFast>(session.options_.slimfast,
                                                 session.options_.name);
  SLIMFAST_ASSIGN_OR_RETURN(
      session.instance_,
      CompileInstance(std::move(store), features,
                      session.options_.slimfast.model));
  return session;
}

FusionSession::State FusionSession::ExportState() const {
  State state;
  state.weights = weights_;
  state.predictions = predictions_;
  state.source_accuracies = source_accuracies_;
  state.posterior_begin = posterior_begin_;
  state.posterior_values = posterior_values_;
  state.posterior_probs = posterior_probs_;
  state.num_ingested_batches = num_ingested_batches_;
  state.num_relearns = num_relearns_;
  state.pending_batches = pending_batches_;
  return state;
}

Result<FusionSession> FusionSession::Restore(const ObservationStore& store,
                                             State state,
                                             FusionSessionOptions options,
                                             FeatureSpace features) {
  if (state.num_ingested_batches < 0 || state.num_relearns < 0 ||
      state.pending_batches < 0 ||
      state.pending_batches > state.num_ingested_batches) {
    return Status::InvalidArgument(
        "restored session counters are inconsistent");
  }
  const size_t num_objects = static_cast<size_t>(store.num_objects());
  if (state.num_relearns > 0) {
    const bool posterior_consistent =
        state.posterior_begin.size() == num_objects + 1 &&
        !state.posterior_begin.empty() &&
        state.posterior_begin.back() ==
            static_cast<int64_t>(state.posterior_values.size()) &&
        state.posterior_values.size() == state.posterior_probs.size();
    if (state.predictions.size() != num_objects || !posterior_consistent ||
        state.source_accuracies.size() !=
            static_cast<size_t>(store.num_sources())) {
      return Status::InvalidArgument(
          "restored model state is mis-sized for the store's universe");
    }
  } else if (!state.weights.empty() || !state.predictions.empty() ||
             !state.posterior_values.empty()) {
    return Status::InvalidArgument(
        "restored state carries a model but no relearns");
  }

  // Compile the checkpointed store as is. The original arrival order is
  // not preserved (the WAL tail covers anything past the checkpoint), but
  // per-object claim order — the only order compilation and learning
  // observe — is, so the instance equals the checkpointed session's.
  SLIMFAST_ASSIGN_OR_RETURN(
      FusionSession session,
      Open(store, std::move(options), std::move(features)));
  // The parameter layout is fixed at Create (ingests never change it), so
  // a relearned weight vector must match it exactly; a mis-sized one
  // would silently turn the next warm relearn into a cold fit.
  const int32_t num_params = session.instance_->model->layout.num_params;
  if (state.num_relearns > 0 &&
      state.weights.size() != static_cast<size_t>(num_params)) {
    return Status::InvalidArgument(
        "restored weights are mis-sized for the session's parameter layout");
  }

  session.weights_ = std::move(state.weights);
  session.predictions_ = std::move(state.predictions);
  session.source_accuracies_ = std::move(state.source_accuracies);
  session.posterior_begin_ = std::move(state.posterior_begin);
  session.posterior_values_ = std::move(state.posterior_values);
  session.posterior_probs_ = std::move(state.posterior_probs);
  session.num_ingested_batches_ = state.num_ingested_batches;
  session.num_relearns_ = state.num_relearns;
  session.pending_batches_ = state.pending_batches;
  return session;
}

Result<IngestStats> FusionSession::Ingest(const ObservationBatch& batch) {
  static obs::LatencyHistogram* delta_hist =
      obs::GetHistogram("slimfast_core_delta_compile_seconds");
  obs::Stage stage("core.session.ingest", delta_hist);
  std::vector<ObjectId> recompiled_rows;
  // DeltaCompile validates the batch via AppendBatch and leaves the
  // session untouched on failure; the counters below only advance once
  // the new instance exists.
  SLIMFAST_ASSIGN_OR_RETURN(
      std::shared_ptr<const CompiledInstance> next,
      DeltaCompile(*instance_, batch, exec_.get(), &recompiled_rows));
  instance_ = std::move(next);
  ++num_ingested_batches_;
  ++pending_batches_;

  IngestStats stats;
  stats.batch_observations =
      static_cast<int64_t>(batch.observations.size());
  stats.batch_truths = static_cast<int64_t>(batch.truths.size());
  stats.touched_objects = static_cast<int32_t>(recompiled_rows.size());
  stats.seconds = stage.End();
  return stats;
}

Result<RelearnStats> FusionSession::Relearn() {
  if (num_observations() == 0) {
    return Status::FailedPrecondition(
        "nothing ingested yet: Ingest at least one observation before "
        "relearning");
  }
  static obs::LatencyHistogram* relearn_hist =
      obs::GetHistogram("slimfast_core_relearn_seconds");
  obs::Stage stage("core.session.relearn", relearn_hist);

  // Every object with ingested truth is training data; the session has no
  // held-out split of its own (evaluation against withheld truth is the
  // caller's concern, e.g. `slimfast_cli replay`).
  const std::vector<ValueId>& truth = instance_->store.truth();
  TrainTestSplit split;
  split.is_train.assign(truth.size(), 0);
  for (ObjectId o = 0; o < static_cast<ObjectId>(truth.size()); ++o) {
    if (truth[static_cast<size_t>(o)] == kNoValue) continue;
    split.train_objects.push_back(o);
    split.is_train[static_cast<size_t>(o)] = 1;
  }

  SLIMFAST_ASSIGN_OR_RETURN(
      SlimFastFit fit,
      slimfast_->FitCompiled(split, options_.seed, instance_,
                             has_model() ? &weights_ : nullptr,
                             exec_.get()));

  SLIMFAST_RETURN_NOT_OK(
      Install(std::move(*fit.model.mutable_weights()), num_relearns_ + 1));

  RelearnStats stats;
  stats.algorithm_used = fit.algorithm_used;
  stats.warm_started = fit.warm_started;
  stats.num_train_objects =
      static_cast<int32_t>(split.train_objects.size());
  stats.seconds = stage.End();
  stats.learn_iterations = fit.learn_iterations;
  stats.learn_converged = fit.learn_converged;
  stats.learn_objective = fit.learn_objective;
  last_relearn_seconds_ = stats.seconds;
  return stats;
}

Status FusionSession::Install(std::vector<double> weights,
                              int32_t num_relearns) {
  if (weights.size() !=
          static_cast<size_t>(instance_->model->layout.num_params) ||
      num_relearns < 1) {
    return Status::InvalidArgument(
        "installed relearn result does not fit the session: " +
        std::to_string(weights.size()) + " weights for " +
        std::to_string(instance_->model->layout.num_params) +
        " parameters, relearn count " + std::to_string(num_relearns));
  }
  SlimFastModel model(instance_);
  model.SetWeights(std::move(weights));
  source_accuracies_ = model.AllSourceAccuracies();
  RefreshPosteriors(model);
  weights_ = std::move(*model.mutable_weights());
  num_relearns_ = num_relearns;
  pending_batches_ = 0;
  return Status::OK();
}

void FusionSession::RefreshPosteriors(const SlimFastModel& model) {
  const CompiledInstance& inst = model.instance();
  const int32_t num_objects = inst.store.num_objects();
  predictions_.assign(static_cast<size_t>(num_objects), kNoValue);
  posterior_begin_.assign(static_cast<size_t>(num_objects) + 1, 0);
  posterior_values_.clear();
  posterior_probs_.clear();
  std::vector<double> probs;
  for (ObjectId o = 0; o < num_objects; ++o) {
    const int32_t row = inst.RowIndex(o);
    if (row >= 0) {
      probs.resize(static_cast<size_t>(inst.DomainSize(row)));
      model.Scores(row, probs.data());
      // MapIndex's argmax (the first strictly greatest score) over the
      // same scores, then Posterior's softmax in place.
      size_t best = 0;
      for (size_t i = 1; i < probs.size(); ++i) {
        if (probs[i] > probs[best]) best = i;
      }
      const auto domain =
          inst.cand_values.begin() + inst.row_begin[static_cast<size_t>(row)];
      predictions_[static_cast<size_t>(o)] = domain[static_cast<int64_t>(best)];
      SoftmaxInPlace(&probs);
      posterior_values_.insert(posterior_values_.end(), domain,
                               domain + static_cast<int64_t>(probs.size()));
      posterior_probs_.insert(posterior_probs_.end(), probs.begin(),
                              probs.end());
    }
    posterior_begin_[static_cast<size_t>(o) + 1] =
        static_cast<int64_t>(posterior_values_.size());
  }
}

FusionSession::Stats FusionSession::stats() const {
  Stats stats;
  stats.last_relearn_seconds = last_relearn_seconds_;
  stats.pending_batches = pending_batches_;
  stats.num_relearns = num_relearns_;
  stats.num_ingested_batches = num_ingested_batches_;
  stats.num_observations = num_observations();
  return stats;
}

FusionSnapshotPtr FusionSession::ExportSnapshot() const {
  const ObservationStore& store = instance_->store;
  auto snapshot = std::make_shared<FusionSnapshot>();
  snapshot->version = num_relearns_;
  snapshot->store_fingerprint = store.content_fingerprint();
  snapshot->num_sources = store.num_sources();
  snapshot->num_objects = store.num_objects();
  snapshot->num_values = store.num_values();
  snapshot->num_relearns = num_relearns_;
  snapshot->num_ingested_batches = num_ingested_batches_;
  snapshot->num_observations = num_observations();
  snapshot->predictions = predictions_;
  snapshot->posterior_begin = posterior_begin_;
  snapshot->posterior_values = posterior_values_;
  snapshot->posterior_probs = posterior_probs_;
  snapshot->source_accuracies = source_accuracies_;
  snapshot->weights = weights_;
  snapshot->claim_counts.resize(static_cast<size_t>(store.num_objects()));
  for (ObjectId o = 0; o < store.num_objects(); ++o) {
    snapshot->claim_counts[static_cast<size_t>(o)] =
        static_cast<int32_t>(store.ObjectRange(o).size());
  }
  return snapshot;
}

ValueId FusionSession::Query(ObjectId object) const {
  if (object < 0 || static_cast<size_t>(object) >= predictions_.size()) {
    return kNoValue;
  }
  return predictions_[static_cast<size_t>(object)];
}

}  // namespace slimfast

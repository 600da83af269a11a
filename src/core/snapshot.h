#ifndef SLIMFAST_CORE_SNAPSHOT_H_
#define SLIMFAST_CORE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/types.h"

namespace slimfast {

/// An immutable, self-contained copy of everything a fusion query can
/// ask: MAP predictions, per-object posterior distributions (the model's
/// marginals), per-object confidence, source-accuracy estimates, the
/// learned weight vector, and enough identity (version, store
/// fingerprint, counters) to tell two snapshots apart bit for bit.
///
/// This is the serving layer's unit of publication: a `FusionSession`
/// exports one after a relearn, the `FusionService` swaps it into an
/// atomic `shared_ptr` slot, and query threads read it wait-free — no
/// lock is shared with ingest or relearning, so a reader can never block
/// a writer or vice versa. Once published a snapshot never changes;
/// readers holding an old `shared_ptr` keep a consistent view until they
/// drop it.
///
/// Equality (`operator==`, used by the sharded-replay determinism tests
/// and the loadgen verifier) is exact over every field, including each
/// double of every posterior — "bit-identical" in the same sense as the
/// delta-compilation oracle.
struct FusionSnapshot {
  // --- Identity -------------------------------------------------------

  /// Publication counter: equals the producing session's relearn count,
  /// so replaying the same ingest sequence yields the same version.
  int64_t version = 0;
  /// Content fingerprint of the columnar store the snapshot's model was
  /// learned from (ObservationStore::content_fingerprint).
  uint64_t store_fingerprint = 0;
  /// Fixed id-universe dimensions of the producing session.
  int32_t num_sources = 0;
  /// See num_sources.
  int32_t num_objects = 0;
  /// See num_sources.
  int32_t num_values = 0;
  /// Lifetime counters of the producing session at export time.
  int32_t num_relearns = 0;
  /// See num_relearns.
  int32_t num_ingested_batches = 0;
  /// Observations absorbed by the producing session at export time.
  int64_t num_observations = 0;

  // --- Model outputs --------------------------------------------------

  /// MAP value per object (kNoValue where unobserved). Empty before the
  /// first relearn — the has_model() signal.
  std::vector<ValueId> predictions;
  /// Retired and always empty; do not read it. Confidence() reads an
  /// object's top probability from its posterior slice. The field is
  /// deleted with the next change to the repository benchmark, whose
  /// snapshot byte count (`slimbench/workloads.cc`) still names it.
  std::vector<double> max_posterior;
  /// CSR offsets into posterior_values/posterior_probs, one slice per
  /// object (size num_objects + 1; empty before the first relearn).
  std::vector<int64_t> posterior_begin;
  /// Candidate values of each object's posterior slice, ascending.
  std::vector<ValueId> posterior_values;
  /// Posterior probability of the matching posterior_values entry.
  std::vector<double> posterior_probs;
  /// Estimated accuracy per source (Eq. 3), empty before first relearn.
  std::vector<double> source_accuracies;
  /// The learned flat weight vector the next warm start resumes from.
  std::vector<double> weights;

  // --- Evidence -------------------------------------------------------

  /// Claims per object — how much evidence backs each prediction.
  std::vector<int32_t> claim_counts;

  /// True once the producing session has relearned at least once.
  bool has_model() const { return !predictions.empty(); }

  /// MAP value of `object`, kNoValue when unknown, unobserved, out of
  /// range, or before the first relearn.
  ValueId Prediction(ObjectId object) const;

  /// Top posterior probability of `object` (0 when unknown).
  double Confidence(ObjectId object) const;

  /// Copies `object`'s posterior into `values`/`probs`; returns false
  /// (leaving the outputs untouched) when the object has no posterior.
  /// Either output pointer may be null to skip that column.
  bool PosteriorOf(ObjectId object, std::vector<ValueId>* values,
                   std::vector<double>* probs) const;

  /// Exact field-wise equality (doubles compared bitwise via ==); the
  /// sharded-replay determinism oracle.
  bool operator==(const FusionSnapshot&) const = default;
};

/// Shared-ownership handle readers hold; the serving layer's currency.
using FusionSnapshotPtr = std::shared_ptr<const FusionSnapshot>;

}  // namespace slimfast

#endif  // SLIMFAST_CORE_SNAPSHOT_H_

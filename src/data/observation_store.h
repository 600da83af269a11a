#ifndef SLIMFAST_DATA_OBSERVATION_STORE_H_
#define SLIMFAST_DATA_OBSERVATION_STORE_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "data/types.h"
#include "util/result.h"

namespace slimfast {

/// Half-open index range [begin, end) into the store's columnar arrays.
struct IndexRange {
  int64_t begin = 0;
  int64_t end = 0;

  int64_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }
};

/// A late-arriving ground-truth label: `object` is known to have `value`.
struct TruthLabel {
  ObjectId object;
  ValueId value;
  bool operator==(const TruthLabel&) const = default;
};

/// One increment of the incremental fusion engine: new observations and
/// ground-truth labels arriving after the initial dataset was compiled.
/// The id universe (source/object/value dictionaries) is fixed at session
/// start — a batch may only reference ids inside it, mirroring how
/// `DatasetBuilder` validates against its declared dimensions.
struct ObservationBatch {
  std::vector<Observation> observations;
  std::vector<TruthLabel> truths;

  bool empty() const { return observations.empty() && truths.empty(); }
  int64_t size() const {
    return static_cast<int64_t>(observations.size()) +
           static_cast<int64_t>(truths.size());
  }
};

/// Splits `dataset` into `num_chunks` replay batches: observations are cut
/// into contiguous runs of the dataset's arrival order (sizes differing by
/// at most one), and each labeled object's truth rides in the chunk that
/// carries the object's first observation (chunk 0 for labeled objects
/// that were never observed). Feeding the chunks to an incremental engine
/// in order reproduces the dataset exactly — the replay harness, the
/// delta-compilation equivalence tests, and the bench all chunk through
/// this one function. `num_chunks` is clamped to at least 1.
std::vector<ObservationBatch> ChunkDatasetForReplay(const Dataset& dataset,
                                                    int32_t num_chunks);

/// Columnar (structure-of-arrays) view of a Dataset's observation multiset
/// Ω with CSR-style per-object ranges.
///
/// The canonical observation order sorts by object id, preserving the
/// dataset's insertion order within each object — exactly the order
/// Dataset::ClaimsOnObject walks, so iterating an object's range of the
/// columnar arrays visits the same claims in the same order as the
/// Dataset's per-object vectors. Compilation, the optimizer, and the
/// learners all read the store; no Dataset is kept beside it.
///
/// Three contiguous id arrays hold the observations (objects()[i],
/// sources()[i], values()[i] describe observation i); a per-object CSR
/// offset array gives O(1) range lookup without hashing or pointer
/// chasing. Domains and ground truth are flattened the same way. There is
/// no by-source index: a reader that needs one derives it from the
/// sources column. The store is immutable after construction and holds no
/// reference to the Dataset it was built from; growth happens by value
/// through AppendBatch, which returns a patched copy (the
/// incremental-fusion ingest path).
class ObservationStore {
 public:
  ObservationStore() = default;

  /// Builds the columnar store from `dataset` (one O(n) pass).
  static ObservationStore FromDataset(const Dataset& dataset);

  /// The raw columnar content of a store — its serialization surface.
  /// Only the primary arrays travel: the flattened domains are a pure
  /// function of the claims and are rebuilt by FromColumns, so a snapshot
  /// cannot smuggle in an inconsistent derived index.
  struct Columns {
    int32_t num_sources = 0;
    int32_t num_objects = 0;
    int32_t num_values = 0;
    std::vector<ObjectId> objects;
    std::vector<SourceId> sources;
    std::vector<ValueId> values;
    std::vector<int64_t> object_offsets;
    std::vector<ValueId> truth;
    uint64_t fingerprint = 0;
  };

  /// Rebuilds a store from serialized columns (the snapshot bulk-load
  /// path). Validates the structure (offset shape, ids in range, the
  /// object column consistent with its offsets, at most one claim per
  /// (source, object) pair), rebuilds the derived domains, then recomputes the content fingerprint from scratch and
  /// requires it to match `columns.fingerprint` — the end-to-end
  /// integrity oracle: a store loaded this way is bitwise equal to the one
  /// that was serialized, or the load fails.
  static Result<ObservationStore> FromColumns(Columns columns);

  /// Exports the primary columns (see Columns); the inverse of
  /// FromColumns up to bitwise store equality.
  Columns ToColumns() const;

  /// Returns a new store extended with `batch`: each object's new claims
  /// are spliced onto the end of its existing CSR range (preserving the
  /// canonical object-major, insertion-within-object order), only the
  /// claimed objects' domains are re-merged, and the content fingerprint
  /// is updated incrementally from the batch alone. Every maximal run of
  /// untouched objects moves as one block copy per column with its offsets
  /// rebased in bulk, so beyond that copy an append costs O(batch).
  /// The result is indistinguishable — array for array, bit for bit — from
  /// a store rebuilt from scratch over the concatenated observations
  /// (asserted in data_observation_store_test).
  ///
  /// Validation mirrors DatasetBuilder: ids must be inside the fixed
  /// dimensions, a (source, object) pair may claim at most once across the
  /// whole history, and a truth label may not contradict one already
  /// recorded (re-asserting the same truth is a no-op). On error the
  /// existing store is unchanged and no partial batch is applied.
  ///
  /// When `touched` is non-null it receives the ascending, deduplicated
  /// list of objects whose claims, domain, or truth changed — exactly the
  /// rows DeltaCompile must recompile.
  Result<ObservationStore> AppendBatch(
      const ObservationBatch& batch,
      std::vector<ObjectId>* touched = nullptr) const;

  /// Order-sensitive content fingerprint of the store: dimensions, every
  /// observation (keyed by its position within its object's range), and
  /// ground truth. Maintained incrementally by AppendBatch — per-item
  /// digests combine by wrapping addition, so absorbing a batch never
  /// re-reads existing items — and equal, by construction, to the
  /// fingerprint of a store rebuilt from scratch with the same content.
  uint64_t content_fingerprint() const { return fingerprint_; }

  int32_t num_sources() const { return num_sources_; }
  int32_t num_objects() const { return num_objects_; }
  int32_t num_values() const { return num_values_; }
  int64_t num_observations() const {
    return static_cast<int64_t>(values_.size());
  }

  /// Columnar id arrays in canonical (by-object) order.
  const std::vector<ObjectId>& objects() const { return objects_; }
  const std::vector<SourceId>& sources() const { return sources_; }
  const std::vector<ValueId>& values() const { return values_; }

  /// Per-object CSR offsets into the columnar arrays (size
  /// num_objects + 1); ObjectRange is the per-object view.
  const std::vector<int64_t>& object_offsets() const {
    return object_offsets_;
  }

  /// Range of `object`'s observations in the columnar arrays; claims appear
  /// in dataset insertion order.
  IndexRange ObjectRange(ObjectId object) const {
    size_t o = static_cast<size_t>(object);
    return IndexRange{object_offsets_[o], object_offsets_[o + 1]};
  }

  /// Range of `object`'s candidate domain in domain_values() (ascending,
  /// deduplicated — same contents as Dataset::DomainOf).
  IndexRange DomainRange(ObjectId object) const {
    size_t o = static_cast<size_t>(object);
    return IndexRange{domain_offsets_[o], domain_offsets_[o + 1]};
  }

  const std::vector<ValueId>& domain_values() const { return domain_values_; }

  /// Ground truth per object (kNoValue when unknown).
  const std::vector<ValueId>& truth() const { return truth_; }

  bool HasTruth(ObjectId object) const {
    return truth_[static_cast<size_t>(object)] != kNoValue;
  }

  /// Index of `value` within `object`'s domain range, or -1 if absent.
  int32_t DomainIndexOf(ObjectId object, ValueId value) const;

  /// Structural equality over every columnar array, index, and the
  /// fingerprint — the "bitwise equal" check the delta-maintenance tests
  /// and the replay cross-check rely on.
  bool operator==(const ObservationStore&) const = default;

 private:
  int32_t num_sources_ = 0;
  int32_t num_objects_ = 0;
  int32_t num_values_ = 0;

  // Columnar observation arrays, canonical order (by object, insertion
  // order within object).
  std::vector<ObjectId> objects_;
  std::vector<SourceId> sources_;
  std::vector<ValueId> values_;

  // CSR offsets: object_offsets_[o] .. object_offsets_[o+1] is object o's
  // slice of the columnar arrays. Size num_objects + 1.
  std::vector<int64_t> object_offsets_;

  // Flattened candidate domains: domain_offsets_ (size num_objects + 1)
  // into domain_values_.
  std::vector<int64_t> domain_offsets_;
  std::vector<ValueId> domain_values_;

  std::vector<ValueId> truth_;

  // Incrementally maintained content fingerprint (see
  // content_fingerprint()).
  uint64_t fingerprint_ = 0;
};

}  // namespace slimfast

#endif  // SLIMFAST_DATA_OBSERVATION_STORE_H_

#include "data/observation_store.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/csr.h"
#include "util/hash.h"

namespace slimfast {

namespace {

// The fingerprint is a wrapping sum of per-item digests over a mixed-in
// dimension base. Addition commutes, so AppendBatch can fold in a batch's
// digests without re-reading the items that already live mid-array — while
// each digest still pins the item's position within its object's range, so
// reorderings (which change compilation output) change the fingerprint.
constexpr uint64_t kStoreSeed = 0x4f62735374726521ULL;  // "ObsStre!"

uint64_t DimensionDigest(int32_t num_sources, int32_t num_objects,
                         int32_t num_values) {
  uint64_t h = kStoreSeed;
  h = HashCombine(h, static_cast<uint64_t>(num_sources));
  h = HashCombine(h, static_cast<uint64_t>(num_objects));
  h = HashCombine(h, static_cast<uint64_t>(num_values));
  return h;
}

uint64_t ObservationDigest(ObjectId object, int64_t position_in_object,
                           SourceId source, ValueId value) {
  uint64_t h = HashCombine(kStoreSeed, 0x6f627365727665ULL);  // "observe"
  h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(object)));
  h = HashCombine(h, static_cast<uint64_t>(position_in_object));
  h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(source)));
  h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(value)));
  return h;
}

uint64_t TruthDigest(ObjectId object, ValueId value) {
  uint64_t h = HashCombine(kStoreSeed, 0x747275746821ULL);  // "truth!"
  h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(object)));
  h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(value)));
  return h;
}

}  // namespace

ObservationStore ObservationStore::FromDataset(const Dataset& dataset) {
  ObservationStore store;
  store.num_sources_ = dataset.num_sources();
  store.num_objects_ = dataset.num_objects();
  store.num_values_ = dataset.num_values();
  const int64_t n = dataset.num_observations();
  store.fingerprint_ = DimensionDigest(store.num_sources_,
                                       store.num_objects_,
                                       store.num_values_);

  store.objects_.reserve(static_cast<size_t>(n));
  store.sources_.reserve(static_cast<size_t>(n));
  store.values_.reserve(static_cast<size_t>(n));
  store.object_offsets_.assign(static_cast<size_t>(store.num_objects_) + 1,
                               0);

  // Canonical order: walk objects ascending, claims in insertion order —
  // the exact order Dataset::ClaimsOnObject exposes.
  for (ObjectId o = 0; o < store.num_objects_; ++o) {
    store.object_offsets_[static_cast<size_t>(o)] =
        static_cast<int64_t>(store.objects_.size());
    int64_t position = 0;
    for (const SourceClaim& claim : dataset.ClaimsOnObject(o)) {
      store.objects_.push_back(o);
      store.sources_.push_back(claim.source);
      store.values_.push_back(claim.value);
      store.fingerprint_ +=
          ObservationDigest(o, position++, claim.source, claim.value);
    }
  }
  store.object_offsets_[static_cast<size_t>(store.num_objects_)] =
      static_cast<int64_t>(store.objects_.size());

  // Flattened domains and truth.
  store.domain_offsets_.assign(static_cast<size_t>(store.num_objects_) + 1,
                               0);
  for (ObjectId o = 0; o < store.num_objects_; ++o) {
    store.domain_offsets_[static_cast<size_t>(o)] =
        static_cast<int64_t>(store.domain_values_.size());
    const std::vector<ValueId>& domain = dataset.DomainOf(o);
    store.domain_values_.insert(store.domain_values_.end(), domain.begin(),
                                domain.end());
  }
  store.domain_offsets_[static_cast<size_t>(store.num_objects_)] =
      static_cast<int64_t>(store.domain_values_.size());

  store.truth_.resize(static_cast<size_t>(store.num_objects_));
  for (ObjectId o = 0; o < store.num_objects_; ++o) {
    ValueId truth = dataset.HasTruth(o) ? dataset.Truth(o) : kNoValue;
    store.truth_[static_cast<size_t>(o)] = truth;
    if (truth != kNoValue) store.fingerprint_ += TruthDigest(o, truth);
  }
  return store;
}

Result<ObservationStore> ObservationStore::AppendBatch(
    const ObservationBatch& batch, std::vector<ObjectId>* touched) const {
  // ---- Validate everything before touching any state. ----
  for (const Observation& obs : batch.observations) {
    if (obs.object < 0 || obs.object >= num_objects_) {
      return Status::OutOfRange("batch object id " +
                                std::to_string(obs.object) + " out of range");
    }
    if (obs.source < 0 || obs.source >= num_sources_) {
      return Status::OutOfRange("batch source id " +
                                std::to_string(obs.source) + " out of range");
    }
    if (obs.value < 0 || obs.value >= num_values_) {
      return Status::OutOfRange("batch value id " +
                                std::to_string(obs.value) + " out of range");
    }
  }
  // The batch's claims in object order, batch order within each object
  // (the order they will occupy at the end of the object's range).
  std::vector<Observation> claims = batch.observations;
  std::stable_sort(claims.begin(), claims.end(),
                   [](const Observation& a, const Observation& b) {
                     return a.object < b.object;
                   });
  // claimed[g] is the g-th object with new claims (ascending);
  // claims[group_begin[g] .. group_begin[g + 1]) are its claims.
  std::vector<ObjectId> claimed;
  std::vector<size_t> group_begin;
  for (size_t k = 0; k < claims.size(); ++k) {
    if (claimed.empty() || claimed.back() != claims[k].object) {
      claimed.push_back(claims[k].object);
      group_begin.push_back(k);
    }
  }
  group_begin.push_back(claims.size());

  // One claim per (source, object) across the whole history, matching
  // DatasetBuilder::AddObservation. The object's existing sources go into
  // a hash map once (flagged as history), so validating a batch costs
  // O(existing + batch) per touched object instead of rescanning the
  // claim range for every claim (quadratic on hot objects under
  // sustained ingest).
  std::unordered_map<SourceId, bool> seen_sources;  // source -> in history
  for (size_t g = 0; g < claimed.size(); ++g) {
    const ObjectId object = claimed[g];
    const IndexRange range = ObjectRange(object);
    seen_sources.clear();
    seen_sources.reserve(static_cast<size_t>(range.size()) +
                         (group_begin[g + 1] - group_begin[g]));
    for (int64_t i = range.begin; i < range.end; ++i) {
      seen_sources.emplace(sources_[static_cast<size_t>(i)], true);
    }
    for (size_t k = group_begin[g]; k < group_begin[g + 1]; ++k) {
      const SourceId source = claims[k].source;
      auto [it, inserted] = seen_sources.emplace(source, false);
      if (inserted) continue;
      const bool in_history = it->second;
      return Status::AlreadyExists(
          in_history ? "duplicate observation for object " +
                           std::to_string(object) + " by source " +
                           std::to_string(source)
                     : "batch claims object " + std::to_string(object) +
                           " twice for source " + std::to_string(source));
    }
  }
  // Truth labels must be in range and consistent with recorded truth; a
  // label repeated (in history or within the batch) with the same value is
  // a no-op.
  std::unordered_map<ObjectId, ValueId> new_truth;
  for (const TruthLabel& label : batch.truths) {
    if (label.object < 0 || label.object >= num_objects_) {
      return Status::OutOfRange("truth object id " +
                                std::to_string(label.object) +
                                " out of range");
    }
    if (label.value < 0 || label.value >= num_values_) {
      return Status::OutOfRange("truth value id " +
                                std::to_string(label.value) +
                                " out of range");
    }
    ValueId existing = truth_[static_cast<size_t>(label.object)];
    if (existing != kNoValue && existing != label.value) {
      return Status::FailedPrecondition(
          "conflicting truth for object " + std::to_string(label.object));
    }
    auto [it, inserted] = new_truth.emplace(label.object, label.value);
    if (!inserted && it->second != label.value) {
      return Status::FailedPrecondition(
          "batch asserts two truths for object " +
          std::to_string(label.object));
    }
    if (existing != kNoValue) new_truth.erase(label.object);  // no-op label
  }

  // ---- Splice the claim and domain columns. ----
  // Each maximal run of untouched objects moves as one block copy per
  // column, its offsets rebased by the claims and domain values inserted
  // before it; a claimed object gets its new claims after its existing
  // range and its domain re-merged (sorted, deduplicated — the Dataset
  // domain contract).
  ObservationStore out;
  out.num_sources_ = num_sources_;
  out.num_objects_ = num_objects_;
  out.num_values_ = num_values_;
  out.fingerprint_ = fingerprint_;

  const size_t total = objects_.size() + batch.observations.size();
  out.objects_.reserve(total);
  out.sources_.reserve(total);
  out.values_.reserve(total);
  out.object_offsets_.reserve(object_offsets_.size());
  out.domain_offsets_.reserve(domain_offsets_.size());
  out.domain_values_.reserve(domain_values_.size() +
                             batch.observations.size());
  // Copies objects [begin, end) unchanged.
  auto copy_untouched = [&](size_t begin, size_t end) {
    AppendShifted(object_offsets_, begin, end,
                  static_cast<int64_t>(out.objects_.size()) -
                      object_offsets_[begin],
                  &out.object_offsets_);
    AppendShifted(domain_offsets_, begin, end,
                  static_cast<int64_t>(out.domain_values_.size()) -
                      domain_offsets_[begin],
                  &out.domain_offsets_);
    AppendRange(objects_, object_offsets_[begin], object_offsets_[end],
                &out.objects_);
    AppendRange(sources_, object_offsets_[begin], object_offsets_[end],
                &out.sources_);
    AppendRange(values_, object_offsets_[begin], object_offsets_[end],
                &out.values_);
    AppendRange(domain_values_, domain_offsets_[begin], domain_offsets_[end],
                &out.domain_values_);
  };
  std::vector<ValueId> merged;
  size_t run_begin = 0;  // first object of the pending untouched run
  for (size_t g = 0; g < claimed.size(); ++g) {
    const ObjectId object = claimed[g];
    const size_t o = static_cast<size_t>(object);
    copy_untouched(run_begin, o);
    run_begin = o + 1;

    const IndexRange range = ObjectRange(object);
    out.object_offsets_.push_back(static_cast<int64_t>(out.objects_.size()));
    AppendRange(objects_, range.begin, range.end, &out.objects_);
    AppendRange(sources_, range.begin, range.end, &out.sources_);
    AppendRange(values_, range.begin, range.end, &out.values_);
    const IndexRange domain = DomainRange(object);
    merged.assign(domain_values_.begin() + domain.begin,
                  domain_values_.begin() + domain.end);
    int64_t position = range.size();
    for (size_t k = group_begin[g]; k < group_begin[g + 1]; ++k) {
      const Observation& obs = claims[k];
      out.objects_.push_back(object);
      out.sources_.push_back(obs.source);
      out.values_.push_back(obs.value);
      out.fingerprint_ +=
          ObservationDigest(object, position++, obs.source, obs.value);
      merged.push_back(obs.value);
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    out.domain_offsets_.push_back(
        static_cast<int64_t>(out.domain_values_.size()));
    out.domain_values_.insert(out.domain_values_.end(), merged.begin(),
                              merged.end());
  }
  copy_untouched(run_begin, static_cast<size_t>(num_objects_));
  out.object_offsets_.push_back(static_cast<int64_t>(out.objects_.size()));
  out.domain_offsets_.push_back(
      static_cast<int64_t>(out.domain_values_.size()));

  // ---- Truth. ----
  out.truth_ = truth_;
  for (const auto& [object, value] : new_truth) {
    out.truth_[static_cast<size_t>(object)] = value;
    out.fingerprint_ += TruthDigest(object, value);
  }

  if (touched != nullptr) {
    touched->clear();
    touched->reserve(claimed.size() + new_truth.size());
    touched->insert(touched->end(), claimed.begin(), claimed.end());
    for (const auto& [object, value] : new_truth) {
      touched->push_back(object);
    }
    std::sort(touched->begin(), touched->end());
    touched->erase(std::unique(touched->begin(), touched->end()),
                   touched->end());
  }
  return out;
}

std::vector<ObservationBatch> ChunkDatasetForReplay(const Dataset& dataset,
                                                    int32_t num_chunks) {
  if (num_chunks < 1) num_chunks = 1;
  const int64_t n = dataset.num_observations();
  std::vector<ObservationBatch> chunks(static_cast<size_t>(num_chunks));

  // Contiguous runs of the arrival order, sizes differing by at most one
  // (the same static split StaticShards uses).
  std::vector<int32_t> first_chunk_of_object(
      static_cast<size_t>(dataset.num_objects()), -1);
  int64_t begin = 0;
  for (int32_t c = 0; c < num_chunks; ++c) {
    int64_t end = begin + n / num_chunks +
                  (static_cast<int64_t>(c) < n % num_chunks ? 1 : 0);
    ObservationBatch& chunk = chunks[static_cast<size_t>(c)];
    chunk.observations.assign(dataset.observations().begin() + begin,
                              dataset.observations().begin() + end);
    for (const Observation& obs : chunk.observations) {
      int32_t& first = first_chunk_of_object[static_cast<size_t>(obs.object)];
      if (first < 0) first = c;
    }
    begin = end;
  }

  for (ObjectId o : dataset.ObjectsWithTruth()) {
    int32_t c = first_chunk_of_object[static_cast<size_t>(o)];
    if (c < 0) c = 0;  // labeled but never observed
    chunks[static_cast<size_t>(c)].truths.push_back(
        TruthLabel{o, dataset.Truth(o)});
  }
  return chunks;
}

ObservationStore::Columns ObservationStore::ToColumns() const {
  Columns columns;
  columns.num_sources = num_sources_;
  columns.num_objects = num_objects_;
  columns.num_values = num_values_;
  columns.objects = objects_;
  columns.sources = sources_;
  columns.values = values_;
  columns.object_offsets = object_offsets_;
  columns.truth = truth_;
  columns.fingerprint = fingerprint_;
  return columns;
}

Result<ObservationStore> ObservationStore::FromColumns(Columns columns) {
  if (columns.num_sources < 0 || columns.num_objects < 0 ||
      columns.num_values < 0) {
    return Status::InvalidArgument("store columns carry negative dimensions");
  }
  const size_t num_objects = static_cast<size_t>(columns.num_objects);
  const size_t n = columns.objects.size();
  if (columns.sources.size() != n || columns.values.size() != n) {
    return Status::InvalidArgument(
        "store columns have mismatched observation array lengths");
  }
  if (columns.object_offsets.size() != num_objects + 1 ||
      columns.object_offsets.front() != 0 ||
      columns.object_offsets.back() != static_cast<int64_t>(n)) {
    return Status::InvalidArgument("store object offsets are malformed");
  }
  if (columns.truth.size() != num_objects) {
    return Status::InvalidArgument("store truth column is mis-sized");
  }

  // Recompute the fingerprint from scratch while validating ranges and
  // the one-claim-per-(source, object) rule AppendBatch enforces; a
  // fingerprint match at the end certifies the columns describe exactly
  // the store that was serialized.
  uint64_t fingerprint = DimensionDigest(
      columns.num_sources, columns.num_objects, columns.num_values);
  // last_object[s]: the last object source s was seen claiming.
  std::vector<ObjectId> last_object(static_cast<size_t>(columns.num_sources),
                                    -1);
  for (ObjectId o = 0; o < columns.num_objects; ++o) {
    const int64_t begin = columns.object_offsets[static_cast<size_t>(o)];
    const int64_t end = columns.object_offsets[static_cast<size_t>(o) + 1];
    if (begin > end) {
      return Status::InvalidArgument(
          "store object offsets are not monotone");
    }
    for (int64_t i = begin; i < end; ++i) {
      const size_t k = static_cast<size_t>(i);
      if (columns.objects[k] != o) {
        return Status::InvalidArgument(
            "store object column disagrees with its offsets");
      }
      const SourceId source = columns.sources[k];
      const ValueId value = columns.values[k];
      if (source < 0 || source >= columns.num_sources || value < 0 ||
          value >= columns.num_values) {
        return Status::InvalidArgument(
            "store columns carry out-of-range ids");
      }
      ObjectId& last = last_object[static_cast<size_t>(source)];
      if (last == o) {
        return Status::InvalidArgument(
            "store columns carry a duplicate observation for object " +
            std::to_string(o) + " by source " + std::to_string(source));
      }
      last = o;
      fingerprint += ObservationDigest(o, i - begin, source, value);
    }
  }
  for (ObjectId o = 0; o < columns.num_objects; ++o) {
    const ValueId truth = columns.truth[static_cast<size_t>(o)];
    if (truth == kNoValue) continue;
    if (truth < 0 || truth >= columns.num_values) {
      return Status::InvalidArgument("store truth value out of range");
    }
    fingerprint += TruthDigest(o, truth);
  }
  if (fingerprint != columns.fingerprint) {
    return Status::InvalidArgument(
        "store fingerprint mismatch: columns hash to " +
        std::to_string(fingerprint) + ", serialized fingerprint is " +
        std::to_string(columns.fingerprint));
  }

  ObservationStore store;
  store.num_sources_ = columns.num_sources;
  store.num_objects_ = columns.num_objects;
  store.num_values_ = columns.num_values;
  store.objects_ = std::move(columns.objects);
  store.sources_ = std::move(columns.sources);
  store.values_ = std::move(columns.values);
  store.object_offsets_ = std::move(columns.object_offsets);
  store.truth_ = std::move(columns.truth);
  store.fingerprint_ = fingerprint;

  // Domains are derived state: the sorted, deduplicated claimed values of
  // each object (the Dataset domain contract), rebuilt rather than
  // deserialized.
  store.domain_offsets_.assign(num_objects + 1, 0);
  std::vector<ValueId> merged;
  for (ObjectId o = 0; o < store.num_objects_; ++o) {
    store.domain_offsets_[static_cast<size_t>(o)] =
        static_cast<int64_t>(store.domain_values_.size());
    IndexRange range = store.ObjectRange(o);
    merged.assign(store.values_.begin() + range.begin,
                  store.values_.begin() + range.end);
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    store.domain_values_.insert(store.domain_values_.end(), merged.begin(),
                                merged.end());
  }
  store.domain_offsets_[num_objects] =
      static_cast<int64_t>(store.domain_values_.size());
  return store;
}

int32_t ObservationStore::DomainIndexOf(ObjectId object, ValueId value) const {
  IndexRange range = DomainRange(object);
  auto begin = domain_values_.begin() + range.begin;
  auto end = domain_values_.begin() + range.end;
  auto it = std::lower_bound(begin, end, value);
  if (it == end || *it != value) return -1;
  return static_cast<int32_t>(it - begin);
}

}  // namespace slimfast

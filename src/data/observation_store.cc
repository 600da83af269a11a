#include "data/observation_store.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

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

void ObservationStore::BuildSourceIndex() {
  source_offsets_.assign(static_cast<size_t>(num_sources_) + 1, 0);
  for (SourceId s : sources_) {
    ++source_offsets_[static_cast<size_t>(s) + 1];
  }
  for (size_t s = 1; s < source_offsets_.size(); ++s) {
    source_offsets_[s] += source_offsets_[s - 1];
  }
  source_observations_.assign(sources_.size(), 0);
  std::vector<int64_t> cursor(source_offsets_.begin(),
                              source_offsets_.end() - 1);
  for (size_t i = 0; i < sources_.size(); ++i) {
    size_t s = static_cast<size_t>(sources_[i]);
    source_observations_[static_cast<size_t>(cursor[s]++)] =
        static_cast<int64_t>(i);
  }
}

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

  store.BuildSourceIndex();

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
  // Claims grouped per object, preserving batch order within each object
  // (the order they will occupy in the object's extended range).
  std::unordered_map<ObjectId, std::vector<size_t>> by_object;
  for (size_t i = 0; i < batch.observations.size(); ++i) {
    const Observation& obs = batch.observations[i];
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
    by_object[obs.object].push_back(i);
  }
  // One claim per (source, object) across the whole history, matching
  // DatasetBuilder::AddObservation. The object's existing sources go into
  // a hash set once, so validating a batch costs O(existing + batch) per
  // touched object instead of rescanning the claim range for every claim
  // (quadratic on hot objects under sustained ingest).
  std::unordered_set<SourceId> seen_sources;
  for (const auto& [object, indexes] : by_object) {
    IndexRange range = ObjectRange(object);
    seen_sources.clear();
    seen_sources.reserve(static_cast<size_t>(range.size()) + indexes.size());
    for (int64_t i = range.begin; i < range.end; ++i) {
      seen_sources.insert(sources_[static_cast<size_t>(i)]);
    }
    for (size_t a = 0; a < indexes.size(); ++a) {
      SourceId source = batch.observations[indexes[a]].source;
      if (seen_sources.count(source) > 0) {
        return Status::AlreadyExists(
            "duplicate observation for object " + std::to_string(object) +
            " by source " + std::to_string(source));
      }
      for (size_t b = a + 1; b < indexes.size(); ++b) {
        if (batch.observations[indexes[b]].source == source) {
          return Status::AlreadyExists(
              "batch claims object " + std::to_string(object) +
              " twice for source " + std::to_string(source));
        }
      }
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

  // ---- Splice the columnar arrays (single merge pass). ----
  ObservationStore out;
  out.num_sources_ = num_sources_;
  out.num_objects_ = num_objects_;
  out.num_values_ = num_values_;
  out.fingerprint_ = fingerprint_;

  const size_t total =
      objects_.size() + batch.observations.size();
  out.objects_.reserve(total);
  out.sources_.reserve(total);
  out.values_.reserve(total);
  out.object_offsets_.assign(static_cast<size_t>(num_objects_) + 1, 0);
  for (ObjectId o = 0; o < num_objects_; ++o) {
    out.object_offsets_[static_cast<size_t>(o)] =
        static_cast<int64_t>(out.objects_.size());
    IndexRange range = ObjectRange(o);
    out.objects_.insert(out.objects_.end(),
                        objects_.begin() + range.begin,
                        objects_.begin() + range.end);
    out.sources_.insert(out.sources_.end(),
                        sources_.begin() + range.begin,
                        sources_.begin() + range.end);
    out.values_.insert(out.values_.end(),
                       values_.begin() + range.begin,
                       values_.begin() + range.end);
    auto it = by_object.find(o);
    if (it == by_object.end()) continue;
    int64_t position = range.size();
    for (size_t idx : it->second) {
      const Observation& obs = batch.observations[idx];
      out.objects_.push_back(obs.object);
      out.sources_.push_back(obs.source);
      out.values_.push_back(obs.value);
      out.fingerprint_ +=
          ObservationDigest(o, position++, obs.source, obs.value);
    }
  }
  out.object_offsets_[static_cast<size_t>(num_objects_)] =
      static_cast<int64_t>(out.objects_.size());

  out.BuildSourceIndex();

  // ---- Patch the flattened domains: untouched objects copy their range,
  // touched objects re-merge (sorted, deduplicated — the Dataset domain
  // contract). ----
  out.domain_offsets_.assign(static_cast<size_t>(num_objects_) + 1, 0);
  out.domain_values_.reserve(domain_values_.size());
  std::vector<ValueId> merged;
  for (ObjectId o = 0; o < num_objects_; ++o) {
    out.domain_offsets_[static_cast<size_t>(o)] =
        static_cast<int64_t>(out.domain_values_.size());
    IndexRange range = DomainRange(o);
    auto it = by_object.find(o);
    if (it == by_object.end()) {
      out.domain_values_.insert(out.domain_values_.end(),
                                domain_values_.begin() + range.begin,
                                domain_values_.begin() + range.end);
      continue;
    }
    merged.assign(domain_values_.begin() + range.begin,
                  domain_values_.begin() + range.end);
    for (size_t idx : it->second) {
      merged.push_back(batch.observations[idx].value);
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    out.domain_values_.insert(out.domain_values_.end(), merged.begin(),
                              merged.end());
  }
  out.domain_offsets_[static_cast<size_t>(num_objects_)] =
      static_cast<int64_t>(out.domain_values_.size());

  // ---- Truth. ----
  out.truth_ = truth_;
  for (const auto& [object, value] : new_truth) {
    out.truth_[static_cast<size_t>(object)] = value;
    out.fingerprint_ += TruthDigest(object, value);
  }

  if (touched != nullptr) {
    touched->clear();
    touched->reserve(by_object.size() + new_truth.size());
    for (const auto& [object, indexes] : by_object) {
      touched->push_back(object);
    }
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
  store.BuildSourceIndex();

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

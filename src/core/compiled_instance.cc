#include "core/compiled_instance.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <unordered_map>
#include <utility>

#include "exec/parallel.h"
#include "util/csr.h"
#include "util/hash.h"

namespace slimfast {

namespace {

/// Maps a packed `min_source * num_sources + max_source` key to its
/// copy-parameter index (empty when the copying extension is off).
using CopyPairIndex = std::unordered_map<int64_t, int32_t>;

/// Accumulates sparse (param, coeff) pairs and emits them merged and
/// sorted by param. A dense per-parameter buffer holds the sums and a
/// list records the parameters touched, so a candidate costs its own
/// terms. Each parameter's sum starts at 0.0 and adds its terms in
/// insertion order, which fixes its bits. One accumulator serves every
/// row of a compile task; Finish leaves it zeroed for the next candidate.
class TermAccumulator {
 public:
  /// Sized for parameter ids below `num_params`.
  explicit TermAccumulator(int32_t num_params)
      : sums_(static_cast<size_t>(num_params), 0.0),
        seen_(static_cast<size_t>(num_params), 0) {}

  void Add(ParamId param, double coeff) {
    const size_t p = static_cast<size_t>(param);
    if (seen_[p] == 0) {
      seen_[p] = 1;
      touched_.push_back(param);
    }
    sums_[p] += coeff;
  }

  /// Appends the merged terms (zero coefficients dropped) and resets.
  void Finish(std::vector<double>* coeff, std::vector<ParamId>* param) {
    std::sort(touched_.begin(), touched_.end());
    for (ParamId p : touched_) {
      const double c = sums_[static_cast<size_t>(p)];
      sums_[static_cast<size_t>(p)] = 0.0;
      seen_[static_cast<size_t>(p)] = 0;
      if (c == 0.0) continue;
      coeff->push_back(c);
      param->push_back(p);
    }
    touched_.clear();
  }

 private:
  std::vector<double> sums_;
  std::vector<uint8_t> seen_;
  std::vector<ParamId> touched_;
};

/// Selects the copying source pairs: pairs whose agreeing co-observations
/// reach config.copying_min_agreements, capped at copying_max_pairs by
/// descending agreement count.
std::vector<std::pair<SourceId, SourceId>> SelectCopyPairs(
    const ObservationStore& store, const ModelConfig& config) {
  const std::vector<SourceId>& sources = store.sources();
  const std::vector<ValueId>& values = store.values();
  std::unordered_map<int64_t, int64_t> agree_counts;
  for (ObjectId o = 0; o < store.num_objects(); ++o) {
    const IndexRange claims = store.ObjectRange(o);
    for (size_t a = static_cast<size_t>(claims.begin);
         a < static_cast<size_t>(claims.end); ++a) {
      for (size_t b = a + 1; b < static_cast<size_t>(claims.end); ++b) {
        if (values[a] != values[b]) continue;
        SourceId i = std::min(sources[a], sources[b]);
        SourceId j = std::max(sources[a], sources[b]);
        if (i == j) continue;
        int64_t key = static_cast<int64_t>(i) * store.num_sources() + j;
        ++agree_counts[key];
      }
    }
  }
  std::vector<std::pair<int64_t, int64_t>> ranked;  // (count, key)
  for (const auto& [key, count] : agree_counts) {
    if (count >= config.copying_min_agreements) {
      ranked.emplace_back(count, key);
    }
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
    if (x.first != y.first) return x.first > y.first;
    return x.second < y.second;
  });
  if (config.copying_max_pairs > 0 &&
      static_cast<int64_t>(ranked.size()) > config.copying_max_pairs) {
    ranked.resize(static_cast<size_t>(config.copying_max_pairs));
  }
  std::vector<std::pair<SourceId, SourceId>> pairs;
  pairs.reserve(ranked.size());
  for (const auto& [count, key] : ranked) {
    pairs.emplace_back(static_cast<SourceId>(key / store.num_sources()),
                       static_cast<SourceId>(key % store.num_sources()));
  }
  // Deterministic order for stable parameter ids.
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// Validates `config` against `store` and `features` and builds the
/// structural header: parameter layout and copy pairs.
Result<CompiledModel> CompileHeader(const ObservationStore& store,
                                    const FeatureSpace& features,
                                    const ModelConfig& config) {
  if (!config.use_source_weights && !config.use_feature_weights) {
    return Status::InvalidArgument(
        "model must use source weights, feature weights, or both");
  }
  if (config.use_feature_weights &&
      features.num_sources() != store.num_sources()) {
    return Status::InvalidArgument(
        "feature space is sized for " +
        std::to_string(features.num_sources()) + " sources, store has " +
        std::to_string(store.num_sources()));
  }
  if (config.use_feature_weights && !config.use_source_weights &&
      features.num_features() == 0) {
    return Status::FailedPrecondition(
        "feature-only model requires a dataset with features");
  }
  if (config.use_copying_features && store.num_sources() < 2) {
    return Status::FailedPrecondition(
        "copying extension requires at least two sources");
  }

  CompiledModel model;
  model.config = config;
  model.num_sources = store.num_sources();
  model.num_features = features.num_features();

  ParamLayout& layout = model.layout;
  int32_t next = 0;
  layout.source_offset = next;
  layout.num_source_params =
      config.use_source_weights ? store.num_sources() : 0;
  next += layout.num_source_params;
  layout.feature_offset = next;
  layout.num_feature_params =
      config.use_feature_weights ? features.num_features() : 0;
  next += layout.num_feature_params;
  layout.copy_offset = next;
  if (config.use_copying_features) {
    model.copy_pairs = SelectCopyPairs(store, config);
    layout.num_copy_params = static_cast<int32_t>(model.copy_pairs.size());
  }
  next += layout.num_copy_params;
  layout.num_params = next;
  return model;
}

/// The one row compiler: derives the posterior expressions of `object`
/// from its claims in `store` and appends the row to `out`'s candidate and
/// term arrays (row_begin, cand_values, cand_offsets, term_begin,
/// term_coeff, term_param). CompileInstance runs it for every observed
/// object and DeltaCompile for the rows with new claims, over the same
/// claims in the same order, so a delta-compiled row is bitwise-identical
/// to its full-compilation counterpart. `structure` supplies the header
/// and the sigma-term CSR; it may be `out` itself. `acc` is the calling
/// task's accumulator, sized for the header's parameters.
void AppendRow(const ObservationStore& store, ObjectId object,
               const CompiledInstance& structure,
               const CopyPairIndex& copy_pairs, TermAccumulator* acc,
               CompiledInstance* out) {
  const CompiledModel& model = *structure.model;
  const ModelConfig& config = model.config;
  const IndexRange claims = store.ObjectRange(object);
  const IndexRange domain = store.DomainRange(object);
  const std::vector<SourceId>& sources = store.sources();
  const std::vector<ValueId>& values = store.values();
  const double claim_offset =
      domain.size() > 2 ? std::log(static_cast<double>(domain.size()) - 1.0)
                        : 0.0;
  for (int64_t k = domain.begin; k < domain.end; ++k) {
    const ValueId d = store.domain_values()[static_cast<size_t>(k)];
    double offset = 0.0;
    for (int64_t i = claims.begin; i < claims.end; ++i) {
      if (values[static_cast<size_t>(i)] != d) continue;
      const size_t s = static_cast<size_t>(sources[static_cast<size_t>(i)]);
      for (int64_t t = structure.sigma_begin[s];
           t < structure.sigma_begin[s + 1]; ++t) {
        acc->Add(structure.sigma_param[static_cast<size_t>(t)],
                 structure.sigma_coeff[static_cast<size_t>(t)]);
      }
      offset += claim_offset;
    }
    // Copying factors (Appendix D): when registered pair (i, j) agrees on
    // value v for this object, a weight fires on every candidate d != v —
    // a positive weight pushes the posterior *away* from the pair's value,
    // modeling that joint mistakes are evidence of copying rather than
    // independent corroboration.
    if (config.use_copying_features) {
      for (int64_t a = claims.begin; a < claims.end; ++a) {
        const ValueId va = values[static_cast<size_t>(a)];
        for (int64_t b = a + 1; b < claims.end; ++b) {
          if (values[static_cast<size_t>(b)] != va) continue;
          const SourceId sa = sources[static_cast<size_t>(a)];
          const SourceId sb = sources[static_cast<size_t>(b)];
          auto it = copy_pairs.find(
              static_cast<int64_t>(std::min(sa, sb)) * model.num_sources +
              std::max(sa, sb));
          if (it == copy_pairs.end()) continue;
          if (d != va) acc->Add(model.layout.copy_offset + it->second, 1.0);
        }
      }
    }
    out->cand_values.push_back(d);
    out->cand_offsets.push_back(offset);
    acc->Finish(&out->term_coeff, &out->term_param);
    out->term_begin.push_back(static_cast<int64_t>(out->term_coeff.size()));
  }
  out->row_begin.push_back(static_cast<int64_t>(out->cand_values.size()));
}

/// Appends the candidate and term ranges of rows [lo, hi) of `src` to
/// `out` as contiguous range copies, rebasing the candidate and term
/// offsets.
void CopyTermRows(const CompiledInstance& src, int32_t lo, int32_t hi,
                  CompiledInstance* out) {
  const int64_t cb = src.row_begin[static_cast<size_t>(lo)];
  const int64_t ce = src.row_begin[static_cast<size_t>(hi)];
  const int64_t tb = src.term_begin[static_cast<size_t>(cb)];
  const int64_t te = src.term_begin[static_cast<size_t>(ce)];
  AppendShifted(src.row_begin, lo + 1, hi + 1, out->num_candidates() - cb,
                &out->row_begin);
  AppendRange(src.cand_values, cb, ce, &out->cand_values);
  AppendRange(src.cand_offsets, cb, ce, &out->cand_offsets);
  AppendShifted(src.term_begin, cb + 1, ce + 1,
                static_cast<int64_t>(out->term_coeff.size()) - tb,
                &out->term_begin);
  AppendRange(src.term_coeff, tb, te, &out->term_coeff);
  AppendRange(src.term_param, tb, te, &out->term_param);
}

/// Appends the claim ranges and truth targets of rows [lo, hi) of `src`
/// to `out`, rebasing the claim offsets. Valid only for rows whose claims,
/// domain, and truth are unchanged in `out->store`.
void CopyClaimRows(const CompiledInstance& src, int32_t lo, int32_t hi,
                   CompiledInstance* out) {
  const int64_t qb = src.claim_begin[static_cast<size_t>(lo)];
  const int64_t qe = src.claim_begin[static_cast<size_t>(hi)];
  AppendShifted(src.claim_begin, lo + 1, hi + 1,
                static_cast<int64_t>(out->claim_sources.size()) - qb,
                &out->claim_begin);
  AppendRange(src.claim_sources, qb, qe, &out->claim_sources);
  AppendRange(src.claim_cand, qb, qe, &out->claim_cand);
  AppendRange(src.truth_cand, lo, hi, &out->truth_cand);
}

/// The one row resolver: appends row `r`'s claims (canonical order) and
/// truth target, read from `instance->store`. The row's candidates must
/// already be in place; each claimed value's domain index is resolved
/// once here so per-iteration walks never binary-search.
/// CompileInstance resolves every row through it, DeltaCompile only the
/// rows whose claims or truth changed.
void ResolveRow(int32_t r, CompiledInstance* instance) {
  const ObservationStore& store = instance->store;
  const ObjectId object = instance->row_object[static_cast<size_t>(r)];
  const IndexRange range = store.ObjectRange(object);
  for (int64_t i = range.begin; i < range.end; ++i) {
    instance->claim_sources.push_back(store.sources()[static_cast<size_t>(i)]);
    instance->claim_cand.push_back(
        instance->DomainIndex(r, store.values()[static_cast<size_t>(i)]));
  }
  instance->claim_begin.push_back(
      static_cast<int64_t>(instance->claim_sources.size()));
  const ValueId truth = store.truth()[static_cast<size_t>(object)];
  instance->truth_cand.push_back(
      truth == kNoValue ? -1 : instance->DomainIndex(r, truth));
}

/// Empty row, candidate, and claim axes (the leading CSR offsets only),
/// with room for `num_candidates` candidates and `num_claims` claims.
void StartRows(size_t num_candidates, size_t num_claims,
               CompiledInstance* instance) {
  instance->row_begin.assign(1, 0);
  instance->term_begin.assign(1, 0);
  instance->claim_begin.assign(1, 0);
  instance->cand_values.reserve(num_candidates);
  instance->cand_offsets.reserve(num_candidates);
  instance->term_begin.reserve(num_candidates + 1);
  instance->claim_sources.reserve(num_claims);
  instance->claim_cand.reserve(num_claims);
}

}  // namespace

int32_t CompiledInstance::DomainIndex(int32_t r, ValueId value) const {
  const auto begin =
      cand_values.begin() + row_begin[static_cast<size_t>(r)];
  const auto end =
      cand_values.begin() + row_begin[static_cast<size_t>(r) + 1];
  auto it = std::lower_bound(begin, end, value);
  if (it == end || *it != value) return -1;
  return static_cast<int32_t>(it - begin);
}

uint64_t DatasetCompilationFingerprint(const Dataset& dataset) {
  uint64_t h = 0x534c694d46617374ULL;  // "SLiMFast"
  h = HashCombine(h, static_cast<uint64_t>(dataset.num_sources()));
  h = HashCombine(h, static_cast<uint64_t>(dataset.num_objects()));
  h = HashCombine(h, static_cast<uint64_t>(dataset.num_values()));
  h = HashCombine(h, static_cast<uint64_t>(dataset.num_observations()));
  // Observations in canonical (by-object, insertion) order — the order
  // every compilation pass walks.
  for (ObjectId o = 0; o < dataset.num_objects(); ++o) {
    for (const SourceClaim& claim : dataset.ClaimsOnObject(o)) {
      uint64_t pair =
          (static_cast<uint64_t>(static_cast<uint32_t>(claim.source)) << 32) |
          static_cast<uint64_t>(static_cast<uint32_t>(claim.value));
      h = HashCombine(h, pair);
    }
    h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(
                           dataset.HasTruth(o) ? dataset.Truth(o)
                                               : kNoValue)));
  }
  // Per-source feature sets (sigma-term sparsity).
  const FeatureSpace& features = dataset.features();
  h = HashCombine(h, static_cast<uint64_t>(features.num_features()));
  for (SourceId s = 0; s < dataset.num_sources(); ++s) {
    const std::vector<FeatureId>& active = features.FeaturesOf(s);
    h = HashCombine(h, static_cast<uint64_t>(active.size()));
    for (FeatureId k : active) {
      h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(k)));
    }
  }
  return h;
}

Result<std::shared_ptr<const CompiledInstance>> CompileInstance(
    ObservationStore store, const FeatureSpace& features,
    const ModelConfig& config) {
  SLIMFAST_ASSIGN_OR_RETURN(CompiledModel header,
                            CompileHeader(store, features, config));
  auto instance = std::make_shared<CompiledInstance>();
  const int32_t num_sources = store.num_sources();

  // Trust-score expressions σ_s.
  const ParamLayout& layout = header.layout;
  instance->sigma_begin.reserve(static_cast<size_t>(num_sources) + 1);
  instance->sigma_begin.push_back(0);
  for (SourceId s = 0; s < num_sources; ++s) {
    if (config.use_source_weights) {
      instance->sigma_coeff.push_back(1.0);
      instance->sigma_param.push_back(layout.source_offset + s);
    }
    if (config.use_feature_weights) {
      for (FeatureId k : features.FeaturesOf(s)) {
        instance->sigma_coeff.push_back(1.0);
        instance->sigma_param.push_back(layout.feature_offset + k);
      }
    }
    instance->sigma_begin.push_back(
        static_cast<int64_t>(instance->sigma_coeff.size()));
  }

  // Fast lookup of registered copying pairs.
  CopyPairIndex pair_index;
  for (size_t c = 0; c < header.copy_pairs.size(); ++c) {
    const auto& [i, j] = header.copy_pairs[c];
    pair_index.emplace(static_cast<int64_t>(i) * num_sources + j,
                       static_cast<int32_t>(c));
  }
  instance->model = std::make_shared<const CompiledModel>(std::move(header));

  // Per-object posterior expressions, one AppendRow per observed object
  // (the same call DeltaCompile makes for rows with new claims), then
  // every row's claims through the one row resolver.
  StartRows(store.domain_values().size(),
            static_cast<size_t>(store.num_observations()), instance.get());
  instance->object_row.assign(static_cast<size_t>(store.num_objects()), -1);
  TermAccumulator acc(instance->model->layout.num_params);
  for (ObjectId o = 0; o < store.num_objects(); ++o) {
    if (store.ObjectRange(o).empty()) continue;
    instance->object_row[static_cast<size_t>(o)] =
        static_cast<int32_t>(instance->row_object.size());
    instance->row_object.push_back(o);
    AppendRow(store, o, *instance, pair_index, &acc, instance.get());
  }
  instance->store = std::move(store);
  instance->truth_cand.reserve(instance->row_object.size());
  for (int32_t r = 0; r < instance->num_rows(); ++r) {
    ResolveRow(r, instance.get());
  }
  return std::shared_ptr<const CompiledInstance>(std::move(instance));
}

Result<std::shared_ptr<const CompiledInstance>> CompileInstance(
    const Dataset& dataset, const ModelConfig& config) {
  return CompileInstance(ObservationStore::FromDataset(dataset),
                         dataset.features(), config);
}

Result<std::shared_ptr<const CompiledInstance>> DeltaCompile(
    const CompiledInstance& base, const ObservationBatch& batch,
    Executor* exec, std::vector<ObjectId>* recompiled_rows) {
  if (base.model->config.use_copying_features) {
    return Status::NotImplemented(
        "delta compilation does not support the copying extension: "
        "copy-pair selection is a global agreement scan, so a batch can "
        "change the parameter layout itself — recompile from scratch");
  }

  auto instance = std::make_shared<CompiledInstance>();
  std::vector<ObjectId> touched;
  SLIMFAST_ASSIGN_OR_RETURN(instance->store,
                            base.store.AppendBatch(batch, &touched));
  const ObservationStore& store = instance->store;

  // Structural context carries over unchanged: new observations cannot
  // alter the parameter layout (the source/feature universes are fixed at
  // session start) or the per-source sigma expressions.
  instance->model = base.model;
  instance->sigma_begin = base.sigma_begin;
  instance->sigma_coeff = base.sigma_coeff;
  instance->sigma_param = base.sigma_param;

  // Recompile exactly the rows with new claims, one fragment per row,
  // sharded across `exec` (each row writes its own fragment, so thread
  // count never changes the result). Truth never enters a row's term
  // expressions, so a truth-only row keeps its base terms.
  std::vector<ObjectId> recompile;
  recompile.reserve(batch.observations.size());
  for (const Observation& obs : batch.observations) {
    recompile.push_back(obs.object);
  }
  std::sort(recompile.begin(), recompile.end());
  recompile.erase(std::unique(recompile.begin(), recompile.end()),
                  recompile.end());
  std::vector<CompiledInstance> fragments(recompile.size());
  const CopyPairIndex no_copy_pairs;
  const std::vector<ShardRange> tasks = StaticShards(
      static_cast<int64_t>(recompile.size()),
      FixedShardCount(static_cast<int64_t>(recompile.size())));
  RunSharded(exec, static_cast<int32_t>(tasks.size()), [&](int32_t t) {
    TermAccumulator acc(base.model->layout.num_params);
    for (int64_t i = tasks[static_cast<size_t>(t)].begin;
         i < tasks[static_cast<size_t>(t)].end; ++i) {
      CompiledInstance& fragment = fragments[static_cast<size_t>(i)];
      StartRows(0, 0, &fragment);
      AppendRow(store, recompile[static_cast<size_t>(i)], base,
                no_copy_pairs, &acc, &fragment);
    }
  });

  // Assemble the rows in ObjectId order. Only the touched objects (new
  // claims or new truth) are visited: between two of them, the objects'
  // row mapping and the base rows' candidate, term, and claim ranges move
  // as one run each. A touched row takes its candidates and terms from
  // its fragment (new claims) or the base (truth only), then re-resolves
  // its claims and truth target.
  StartRows(store.domain_values().size(),
            static_cast<size_t>(store.num_observations()), instance.get());
  instance->object_row.reserve(static_cast<size_t>(store.num_objects()));
  instance->row_object.reserve(base.row_object.size() + recompile.size());
  instance->truth_cand.reserve(base.truth_cand.size() + recompile.size());
  // Room for the base terms plus every fragment's (an upper bound: a
  // recompiled row's base terms are not copied), so assembly never
  // reallocates.
  size_t num_terms = base.term_coeff.size();
  for (const CompiledInstance& fragment : fragments) {
    num_terms += fragment.term_coeff.size();
  }
  instance->term_coeff.reserve(num_terms);
  instance->term_param.reserve(num_terms);
  ObjectId run_object = 0;  // pending run: objects [run_object, o) ...
  int32_t run_row = 0;      // ... and their base rows [run_row, row_end)
  auto copy_run = [&](ObjectId object_end, int32_t row_end) {
    const int32_t row_shift =
        static_cast<int32_t>(instance->row_object.size()) - run_row;
    std::transform(base.object_row.begin() + run_object,
                   base.object_row.begin() + object_end,
                   std::back_inserter(instance->object_row),
                   [row_shift](int32_t row) {
                     return row < 0 ? row : row + row_shift;
                   });
    AppendRange(base.row_object, run_row, row_end, &instance->row_object);
    CopyTermRows(base, run_row, row_end, instance.get());
    CopyClaimRows(base, run_row, row_end, instance.get());
  };
  size_t next_recompiled = 0;
  for (ObjectId o : touched) {
    if (store.ObjectRange(o).empty()) continue;  // truth only, no row yet
    const int32_t base_row = base.RowIndex(o);
    const int32_t row_end =
        base_row >= 0
            ? base_row
            : static_cast<int32_t>(std::lower_bound(base.row_object.begin(),
                                                    base.row_object.end(),
                                                    o) -
                                   base.row_object.begin());
    copy_run(o, row_end);
    const int32_t r = static_cast<int32_t>(instance->row_object.size());
    instance->object_row.push_back(r);
    instance->row_object.push_back(o);
    if (next_recompiled < recompile.size() &&
        recompile[next_recompiled] == o) {
      CopyTermRows(fragments[next_recompiled++], 0, 1, instance.get());
    } else {
      CopyTermRows(base, base_row, base_row + 1, instance.get());
    }
    ResolveRow(r, instance.get());
    run_object = o + 1;
    run_row = base_row >= 0 ? base_row + 1 : row_end;
  }
  copy_run(store.num_objects(), base.num_rows());
  if (recompiled_rows != nullptr) *recompiled_rows = std::move(recompile);
  return std::shared_ptr<const CompiledInstance>(std::move(instance));
}

bool BitwiseEqual(const CompiledInstance& a, const CompiledInstance& b) {
  return *a.model == *b.model && a.store == b.store &&
         a.row_object == b.row_object && a.object_row == b.object_row &&
         a.row_begin == b.row_begin && a.cand_values == b.cand_values &&
         a.cand_offsets == b.cand_offsets && a.term_begin == b.term_begin &&
         a.term_coeff == b.term_coeff && a.term_param == b.term_param &&
         a.sigma_begin == b.sigma_begin && a.sigma_coeff == b.sigma_coeff &&
         a.sigma_param == b.sigma_param && a.claim_begin == b.claim_begin &&
         a.claim_sources == b.claim_sources &&
         a.claim_cand == b.claim_cand && a.truth_cand == b.truth_cand;
}

CompiledInstanceCache& CompiledInstanceCache::Global() {
  static CompiledInstanceCache* cache = new CompiledInstanceCache();
  return *cache;
}

Result<std::shared_ptr<const CompiledInstance>>
CompiledInstanceCache::GetOrCompile(const Dataset& dataset,
                                    const ModelConfig& config) {
  // A hit requires matching content hash, observation count, and config.
  // The 64-bit hash is trusted without a full dataset comparison: at the
  // cache's capacity (8 entries) a silent collision needs ~2^-61 luck,
  // and the alternative — keeping or re-reading the full observation
  // list per lookup — costs what the cache exists to save.
  const uint64_t fingerprint = DatasetCompilationFingerprint(dataset);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Entry& entry : entries_) {
      if (entry.fingerprint == fingerprint &&
          entry.num_observations == dataset.num_observations() &&
          entry.config == config) {
        entry.last_used = ++tick_;
        ++hits_;
        return entry.instance;
      }
    }
  }
  // Compile outside the lock: a miss is the expensive path and other
  // threads may be hitting on different datasets meanwhile.
  SLIMFAST_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledInstance> instance,
                            CompileInstance(dataset, config));
  std::lock_guard<std::mutex> lock(mu_);
  ++misses_;
  // A racing thread may have inserted the same key; reuse its entry so all
  // callers share one instance.
  for (Entry& entry : entries_) {
    if (entry.fingerprint == fingerprint &&
        entry.num_observations == dataset.num_observations() &&
        entry.config == config) {
      entry.last_used = ++tick_;
      return entry.instance;
    }
  }
  if (entries_.size() >= capacity_ && !entries_.empty()) {
    size_t lru = 0;
    for (size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].last_used < entries_[lru].last_used) lru = i;
    }
    entries_.erase(entries_.begin() + static_cast<int64_t>(lru));
  }
  entries_.push_back(Entry{fingerprint, dataset.num_observations(), config,
                           instance, ++tick_});
  return instance;
}

void CompiledInstanceCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

size_t CompiledInstanceCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

int64_t CompiledInstanceCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

int64_t CompiledInstanceCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace slimfast

#ifndef SLIMFAST_CORE_COMPILED_INSTANCE_H_
#define SLIMFAST_CORE_COMPILED_INSTANCE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/options.h"
#include "data/feature_space.h"
#include "data/observation_store.h"
#include "util/result.h"

namespace slimfast {

/// Dense parameter index into the model's weight vector.
using ParamId = int32_t;

/// Layout of the flat parameter vector:
///   [0, num_sources)                      per-source indicator weights w_s
///   [feature_offset, feature_offset+K)    feature weights w_k
///   [copy_offset, copy_offset+C)          copying pair weights (App. D)
/// Disabled groups have zero width.
struct ParamLayout {
  int32_t num_params = 0;
  int32_t source_offset = 0;
  int32_t num_source_params = 0;
  int32_t feature_offset = 0;
  int32_t num_feature_params = 0;
  int32_t copy_offset = 0;
  int32_t num_copy_params = 0;

  bool IsSourceParam(ParamId p) const {
    return p >= source_offset && p < source_offset + num_source_params;
  }
  bool IsFeatureParam(ParamId p) const {
    return p >= feature_offset && p < feature_offset + num_feature_params;
  }
  bool IsCopyParam(ParamId p) const {
    return p >= copy_offset && p < copy_offset + num_copy_params;
  }

  bool operator==(const ParamLayout&) const = default;
};

/// The structural header of a compiled model (the "Compilation" step of
/// Figure 3): the config it was compiled under, the parameter layout, and
/// the copying pairs. The per-source trust-score and per-object posterior
/// expressions live in the CSR arrays of the CompiledInstance that owns
/// this header (below). New observations never change the header (the
/// source and feature universes are fixed), so a delta compilation shares
/// its base's header unchanged.
struct CompiledModel {
  ModelConfig config;
  ParamLayout layout;
  /// Copying extension: copy_pairs[c] is the source pair of copy parameter
  /// layout.copy_offset + c.
  std::vector<std::pair<SourceId, SourceId>> copy_pairs;

  int32_t num_sources = 0;
  int32_t num_features = 0;

  bool operator==(const CompiledModel&) const = default;
};

/// The compilation of one (dataset, ModelConfig) pair: the columnar
/// ObservationStore plus the log-linear structure of Eq. 4, compiled once
/// into contiguous CSR arrays. This is the one compiled representation:
/// SlimFastModel scores rows from it, and ERM and EM re-read it with fresh
/// weights every epoch and E-step.
///
/// Index spaces:
///   rows         [0, num_rows): the observed objects in ascending
///                ObjectId; row_object / object_row map between the two.
///   candidates   row r owns [row_begin[r], row_begin[r+1]) of
///                cand_values / cand_offsets.
///   terms        candidate c owns [term_begin[c], term_begin[c+1]) of
///                term_coeff / term_param.
///   sigma terms  source s owns [sigma_begin[s], sigma_begin[s+1]) of
///                sigma_coeff / sigma_param.
///   claims       row r owns [claim_begin[r], claim_begin[r+1]) of
///                claim_sources / claim_cand.
///
/// Every term range is merged by parameter and sorted by ParamId; the
/// score of candidate c is cand_offsets[c] + Σ term_coeff·w[term_param],
/// folded lane-stably (simd::LaneStableSum) everywhere it is computed.
struct CompiledInstance {
  /// Structural header (config, parameter layout, copy pairs). Immutable
  /// and shared by every delta compilation derived from this instance.
  std::shared_ptr<const CompiledModel> model;

  /// Columnar observation store: the claims and ground truth this
  /// instance was compiled from, and the only raw claim data the
  /// optimizer and the learners read.
  ObservationStore store;

  // --- Row axis ---
  std::vector<ObjectId> row_object;  ///< size num_rows
  std::vector<int32_t> object_row;   ///< size num_objects; -1 = unobserved

  // --- Candidate axis ---
  std::vector<int64_t> row_begin;   ///< size num_rows + 1
  std::vector<ValueId> cand_values;  ///< ascending within each row
  /// Constant score offset per candidate (no gradient): the multiclass
  /// correction count(d) * log(|D_o| - 1). Equation 2 defines σ_s as the
  /// binary log-odds; with |D_o| > 2 candidates and wrong values spread
  /// uniformly, each claim's correct Naive-Bayes vote is
  /// log(A_s / ((1 - A_s) / (n - 1))) = σ_s + log(n - 1) — the same n
  /// factor ACCU uses. Zero for binary domains, so the base model is
  /// exactly Eq. 4 there.
  std::vector<double> cand_offsets;

  // --- Posterior terms ---
  std::vector<int64_t> term_begin;  ///< size num_candidates + 1
  std::vector<double> term_coeff;
  std::vector<ParamId> term_param;

  // --- Trust-score terms σ_s = w_s + Σ_k w_k f_{s,k} ---
  std::vector<int64_t> sigma_begin;  ///< size num_sources + 1
  std::vector<double> sigma_coeff;
  std::vector<ParamId> sigma_param;

  // --- Per-row claims, in dataset insertion order ---
  std::vector<int64_t> claim_begin;  ///< size num_rows + 1
  std::vector<SourceId> claim_sources;
  /// Candidate index (within the row's domain) of each claimed value.
  std::vector<int32_t> claim_cand;

  /// Candidate index of the row's ground-truth value, or -1 when the row
  /// is unlabeled (or its truth was never claimed).
  std::vector<int32_t> truth_cand;

  int32_t num_rows() const {
    return static_cast<int32_t>(row_begin.size()) - 1;
  }
  int64_t num_candidates() const {
    return static_cast<int64_t>(cand_values.size());
  }

  /// Domain size of row `r`.
  int32_t DomainSize(int32_t r) const {
    return static_cast<int32_t>(row_begin[static_cast<size_t>(r) + 1] -
                                row_begin[static_cast<size_t>(r)]);
  }

  /// Row of `object`, or -1 when it has no observations (or is out of
  /// range).
  int32_t RowIndex(ObjectId object) const {
    if (object < 0 || object >= static_cast<ObjectId>(object_row.size())) {
      return -1;
    }
    return object_row[static_cast<size_t>(object)];
  }

  /// Index of `value` within row `r`'s domain, or -1 if absent.
  int32_t DomainIndex(int32_t r, ValueId value) const;
};

/// Compiles the claims in `store` and the per-source `features` under
/// `config` straight into the CSR arrays; the instance takes ownership of
/// `store`. This is the compiler: the copy-pair scan, the header, and
/// every row read the store. Fails if the config enables features but the
/// input has none of the structure required (e.g. copying with < 2
/// sources, or a feature space sized for another source count).
Result<std::shared_ptr<const CompiledInstance>> CompileInstance(
    ObservationStore store, const FeatureSpace& features,
    const ModelConfig& config);

/// Compiles `dataset`: its columnar store plus its feature space.
Result<std::shared_ptr<const CompiledInstance>> CompileInstance(
    const Dataset& dataset, const ModelConfig& config);

class Executor;

/// Extends a compiled instance with one ingest batch, recompiling only the
/// touched rows — the delta-maintenance step of the incremental fusion
/// engine.
///
/// The patched `ObservationStore` comes from `ObservationStore::AppendBatch`
/// (CSR range splice + incremental fingerprint); only the rows with new
/// claims are re-derived, through the same row compiler the full compiler
/// runs, and every other row's candidate and term ranges are copied from
/// the base in contiguous runs. The result is **bitwise-equal** to
/// `CompileInstance` over the concatenated data — same structure, same
/// term coefficients, same offsets to the last bit — which
/// `core_delta_compile_test` asserts for every preset and chunking, and
/// the bench re-checks on every run. Touched-row recompilation is sharded
/// across `exec` (null = serial; rows are independent, so thread count
/// never changes the result).
///
/// Returns NotImplemented when the base config enables the copying
/// extension: copy-pair selection is a global agreement scan, so a batch
/// can invalidate the parameter layout itself — callers must recompile
/// from scratch in that configuration.
///
/// When `recompiled_rows` is non-null it receives the ascending list of
/// objects whose rows were actually re-derived: the objects with new
/// claims in the batch. Truth-only updates re-derive nothing — truth
/// never enters a row's term expressions, and the claim/truth pass
/// re-resolves every truth target from the patched store.
Result<std::shared_ptr<const CompiledInstance>> DeltaCompile(
    const CompiledInstance& base, const ObservationBatch& batch,
    Executor* exec = nullptr,
    std::vector<ObjectId>* recompiled_rows = nullptr);

/// Deep bitwise equality of two compiled instances: the structural
/// header, the columnar store (including its content fingerprint), and
/// every CSR array (term coefficients and offsets compared as exact
/// doubles). This is the delta-compilation correctness oracle.
bool BitwiseEqual(const CompiledInstance& a, const CompiledInstance& b);

/// Content fingerprint of everything compilation reads from a dataset:
/// dimensions, the observation multiset in canonical order, ground truth,
/// and the per-source feature sets. Two datasets with equal fingerprints
/// compile identically under any config.
uint64_t DatasetCompilationFingerprint(const Dataset& dataset);

/// Process-wide LRU cache of CompiledInstances keyed on
/// (DatasetCompilationFingerprint, ModelConfig). A SlimFast facade run,
/// an eval-grid sweep, or a bench loop that re-fits the same dataset pays
/// for compilation exactly once; all users share one immutable instance.
/// Thread-safe.
class CompiledInstanceCache {
 public:
  /// The process-wide cache used by the SlimFast facade.
  static CompiledInstanceCache& Global();

  explicit CompiledInstanceCache(size_t capacity = 8)
      : capacity_(capacity) {}

  /// Returns the cached instance for (dataset, config), compiling and
  /// inserting it on a miss. The least-recently-used entry is evicted when
  /// the cache is full.
  Result<std::shared_ptr<const CompiledInstance>> GetOrCompile(
      const Dataset& dataset, const ModelConfig& config);

  /// Drops every entry (tests; datasets freed mid-process).
  void Clear();

  size_t size() const;
  int64_t hits() const;
  int64_t misses() const;

 private:
  struct Entry {
    uint64_t fingerprint;
    int64_t num_observations;
    ModelConfig config;
    std::shared_ptr<const CompiledInstance> instance;
    uint64_t last_used;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t tick_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace slimfast

#endif  // SLIMFAST_CORE_COMPILED_INSTANCE_H_

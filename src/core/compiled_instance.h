#ifndef SLIMFAST_CORE_COMPILED_INSTANCE_H_
#define SLIMFAST_CORE_COMPILED_INSTANCE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/compilation.h"
#include "data/observation_store.h"
#include "simd/simd.h"
#include "util/math.h"
#include "util/result.h"

namespace slimfast {

/// The flat, cache-friendly compilation of one (dataset, ModelConfig)
/// pair: the columnar ObservationStore plus every sparsity pattern the
/// learners walk per iteration, compiled once and flattened into CSR
/// arrays.
///
/// The graph topology and feature sparsity pattern are fixed for a given
/// dataset, so batch-ERM epochs and EM E-steps only ever re-read this
/// structure with fresh weights. The legacy dense path walks
/// CompiledModel's nested per-object vectors; the sparse path walks these
/// flat ranges in the same element order, so both produce bit-identical
/// results (asserted per preset in determinism_test).
///
/// Index spaces:
///   rows        [0, num_rows)        — CompiledModel::objects order
///   candidates  [0, num_candidates)  — rows' domains concatenated;
///                                      row r owns [row_begin[r], row_begin[r+1])
///   terms       flat ParamTerm array — candidate c owns
///                                      [term_begin[c], term_begin[c+1])
struct CompiledInstance {
  /// The structural compilation this instance flattens. Shared with every
  /// SlimFastModel fit against it, so repeated fits never recompile.
  std::shared_ptr<const CompiledModel> model;

  /// Columnar observation store of the source dataset.
  ObservationStore store;

  // --- Candidate axis (flattened CompiledObject domains) ---
  std::vector<int64_t> row_begin;   ///< size num_rows + 1
  std::vector<ValueId> cand_values;
  std::vector<double> cand_offsets;  ///< constant score offsets

  // --- Posterior terms (flattened CompiledObject::terms) ---
  std::vector<int64_t> term_begin;  ///< size num_candidates + 1
  std::vector<ParamTerm> terms;
  /// SoA mirrors of `terms`, split so the SIMD kernels can stream
  /// coefficients and gather weights without striding over the AoS pairs.
  /// Filled by the same flattening pass; always element-aligned with
  /// `terms`.
  std::vector<double> term_coeff;
  std::vector<ParamId> term_param;

  // --- Trust-score terms (flattened CompiledModel::sigma_terms) ---
  std::vector<int64_t> sigma_begin;  ///< size num_sources + 1
  std::vector<ParamTerm> sigma_terms;

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
};

/// Linear score of global candidate `cand` under weights `w` — the same
/// lane-stable accumulation as SlimFastModel::ValueScore on the dense
/// rows and as the batched TermProducts + FoldRanges kernel pipeline.
inline double SparseValueScore(const CompiledInstance& inst, int64_t cand,
                               const std::vector<double>& w) {
  const int64_t begin = inst.term_begin[static_cast<size_t>(cand)];
  const int64_t n = inst.term_begin[static_cast<size_t>(cand) + 1] - begin;
  const double* coeff = inst.term_coeff.data() + begin;
  const ParamId* param = inst.term_param.data() + begin;
  return inst.cand_offsets[static_cast<size_t>(cand)] +
         simd::LaneStableSum(n, [&](int64_t i) {
           return coeff[i] * w[static_cast<size_t>(param[i])];
         });
}

/// Posterior over row `r`'s candidates (softmax of SparseValueScore);
/// bit-identical to SlimFastModel::Posterior on the matching dense row.
inline void SparsePosterior(const CompiledInstance& inst, int32_t r,
                            const std::vector<double>& w,
                            std::vector<double>* probs) {
  const int64_t begin = inst.row_begin[static_cast<size_t>(r)];
  const int64_t end = inst.row_begin[static_cast<size_t>(r) + 1];
  probs->resize(static_cast<size_t>(end - begin));
  for (int64_t c = begin; c < end; ++c) {
    (*probs)[static_cast<size_t>(c - begin)] = SparseValueScore(inst, c, w);
  }
  SoftmaxInPlace(probs);
}

/// Compiles `dataset` under `config` and flattens the result. The heavy
/// lifting is Compile(); flattening is one linear pass.
Result<std::shared_ptr<const CompiledInstance>> CompileInstance(
    const Dataset& dataset, const ModelConfig& config);

class Executor;

/// Extends a compiled instance with one ingest batch, recompiling only the
/// touched rows — the delta-maintenance step of the incremental fusion
/// engine.
///
/// The patched `ObservationStore` comes from `ObservationStore::AppendBatch`
/// (CSR range splice + incremental fingerprint); only the rows whose
/// claims, domain, or truth changed are re-derived, through the same
/// `CompileObjectRow` the full compiler runs, and the flat CSR arrays are
/// reassembled in one linear pass. The result is **bitwise-equal** to
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
/// never enters a row's term expressions, and the flattening pass
/// re-resolves every truth target from the patched store.
Result<std::shared_ptr<const CompiledInstance>> DeltaCompile(
    const CompiledInstance& base, const ObservationBatch& batch,
    Executor* exec = nullptr,
    std::vector<ObjectId>* recompiled_rows = nullptr);

/// Deep bitwise equality of two compiled instances: the compiled model
/// (every term coefficient and offset compared as exact doubles), the
/// columnar store (including its content fingerprint), and every flat CSR
/// array. This is the delta-compilation correctness oracle.
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

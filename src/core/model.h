#ifndef SLIMFAST_CORE_MODEL_H_
#define SLIMFAST_CORE_MODEL_H_

#include <memory>
#include <vector>

#include "core/compiled_instance.h"
#include "data/types.h"
#include "simd/simd.h"

namespace slimfast {

/// SLiMFast's parameterized model: a compiled instance plus the flat
/// weight vector w = (⟨w_s⟩, ⟨w_k⟩, ⟨w_copy⟩).
///
/// The model answers the two questions of Sec. 3.2: the posterior
/// P(To = d | Ω; w) per object (Eq. 4) and the estimated source accuracy
/// A_s = sigmoid(σ_s) (Eq. 3). Rows are the instance's rows (observed
/// objects in ascending ObjectId order; CompiledInstance::RowIndex maps an
/// object to its row). It is cheap to copy the weights in and out, which
/// the learners use for warm starts.
///
/// Every score folds through simd::LaneStableSum — the one accumulation
/// contract shared with the batched CSR kernels — so a score computed
/// row-at-a-time here is bit-identical to the same score computed by the
/// TermProducts + FoldRanges pipeline in the E-step and batch ERM.
class SlimFastModel {
 public:
  /// Shares an already-compiled instance (e.g. from the
  /// CompiledInstanceCache); only the weight vector is per-model state, so
  /// any number of models can fit against one compilation. Weights start
  /// at zero (A_s = 0.5 for featureless sources).
  explicit SlimFastModel(std::shared_ptr<const CompiledInstance> instance);

  const CompiledInstance& instance() const { return *instance_; }
  /// The shared compilation, for constructing sibling models (EM restarts,
  /// calibration copies) without copying the structure.
  const std::shared_ptr<const CompiledInstance>& shared_instance() const {
    return instance_;
  }
  const ParamLayout& layout() const { return instance_->model->layout; }

  const std::vector<double>& weights() const { return weights_; }
  std::vector<double>* mutable_weights() { return &weights_; }
  void SetWeights(std::vector<double> weights);

  /// Trust score σ_s = w_s + Σ_k w_k f_{s,k} of a source.
  double SourceScore(SourceId source) const;

  /// Estimated accuracy A_s = sigmoid(σ_s) (Eq. 3).
  double SourceAccuracy(SourceId source) const;

  /// All per-source accuracy estimates.
  std::vector<double> AllSourceAccuracies() const;

  /// Linear score of global candidate `cand` (an index into the
  /// instance's candidate axis).
  double ValueScore(int64_t cand) const {
    const CompiledInstance& inst = *instance_;
    const int64_t begin = inst.term_begin[static_cast<size_t>(cand)];
    const double* coeff = inst.term_coeff.data() + begin;
    const ParamId* param = inst.term_param.data() + begin;
    const double* w = weights_.data();
    return inst.cand_offsets[static_cast<size_t>(cand)] +
           simd::LaneStableSum(
               inst.term_begin[static_cast<size_t>(cand) + 1] - begin,
               [&](int64_t i) { return coeff[i] * w[param[i]]; });
  }

  /// Raw candidate scores of row `row` (the pre-softmax part of
  /// Posterior), written to `out[0..DomainSize)`.
  void Scores(int32_t row, double* out) const {
    const int64_t begin = instance_->row_begin[static_cast<size_t>(row)];
    const int64_t end = instance_->row_begin[static_cast<size_t>(row) + 1];
    for (int64_t c = begin; c < end; ++c) out[c - begin] = ValueScore(c);
  }

  /// Posterior over the candidate domain of row `row` (softmax of its
  /// scores). `probs` is resized to the domain size.
  void Posterior(int32_t row, std::vector<double>* probs) const;

  /// Posterior of object `object`; returns false if it has no observations.
  bool PosteriorOf(ObjectId object, std::vector<double>* probs) const;

  /// MAP candidate index of row `row`.
  int32_t MapIndex(int32_t row) const;

  /// MAP value per object for the whole dataset shape the model was
  /// compiled from; unobserved objects get kNoValue.
  std::vector<ValueId> PredictAll() const;

  /// Negative log-likelihood −log P(To = domain[target_index] | Ω; w) for
  /// row `row`.
  double ObjectNll(int32_t row, int32_t target_index) const;

 private:
  std::shared_ptr<const CompiledInstance> instance_;
  std::vector<double> weights_;
};

}  // namespace slimfast

#endif  // SLIMFAST_CORE_MODEL_H_

#include "core/model.h"

#include <cmath>

#include "util/logging.h"
#include "util/math.h"

namespace slimfast {

SlimFastModel::SlimFastModel(std::shared_ptr<const CompiledInstance> instance)
    : instance_(std::move(instance)),
      weights_(static_cast<size_t>(instance_->model->layout.num_params),
               0.0) {}

void SlimFastModel::SetWeights(std::vector<double> weights) {
  SLIMFAST_DCHECK(weights.size() == weights_.size(),
                  "weight vector size mismatch");
  weights_ = std::move(weights);
}

double SlimFastModel::SourceScore(SourceId source) const {
  SLIMFAST_DCHECK(source >= 0 && source < instance_->model->num_sources,
                  "source id out of range");
  const CompiledInstance& inst = *instance_;
  const int64_t begin = inst.sigma_begin[static_cast<size_t>(source)];
  const double* coeff = inst.sigma_coeff.data() + begin;
  const ParamId* param = inst.sigma_param.data() + begin;
  return simd::LaneStableSum(
      inst.sigma_begin[static_cast<size_t>(source) + 1] - begin,
      [&](int64_t i) {
        return coeff[i] * weights_[static_cast<size_t>(param[i])];
      });
}

double SlimFastModel::SourceAccuracy(SourceId source) const {
  return Sigmoid(SourceScore(source));
}

std::vector<double> SlimFastModel::AllSourceAccuracies() const {
  const int32_t num_sources = instance_->model->num_sources;
  std::vector<double> accuracies(static_cast<size_t>(num_sources));
  for (SourceId s = 0; s < num_sources; ++s) {
    accuracies[static_cast<size_t>(s)] = SourceAccuracy(s);
  }
  return accuracies;
}

void SlimFastModel::Posterior(int32_t row, std::vector<double>* probs) const {
  probs->resize(static_cast<size_t>(instance_->DomainSize(row)));
  Scores(row, probs->data());
  SoftmaxInPlace(probs);
}

bool SlimFastModel::PosteriorOf(ObjectId object,
                                std::vector<double>* probs) const {
  const int32_t row = instance_->RowIndex(object);
  if (row < 0) return false;
  Posterior(row, probs);
  return true;
}

int32_t SlimFastModel::MapIndex(int32_t row) const {
  const int64_t begin = instance_->row_begin[static_cast<size_t>(row)];
  const int64_t end = instance_->row_begin[static_cast<size_t>(row) + 1];
  int32_t best = 0;
  double best_score = ValueScore(begin);
  for (int64_t c = begin + 1; c < end; ++c) {
    double score = ValueScore(c);
    if (score > best_score) {
      best_score = score;
      best = static_cast<int32_t>(c - begin);
    }
  }
  return best;
}

std::vector<ValueId> SlimFastModel::PredictAll() const {
  const CompiledInstance& inst = *instance_;
  std::vector<ValueId> predictions(inst.object_row.size(), kNoValue);
  for (int32_t r = 0; r < inst.num_rows(); ++r) {
    predictions[static_cast<size_t>(inst.row_object[static_cast<size_t>(r)])] =
        inst.cand_values[static_cast<size_t>(
            inst.row_begin[static_cast<size_t>(r)] + MapIndex(r))];
  }
  return predictions;
}

double SlimFastModel::ObjectNll(int32_t row, int32_t target_index) const {
  SLIMFAST_DCHECK(
      target_index >= 0 && target_index < instance_->DomainSize(row),
      "target index out of range");
  std::vector<double> scores(static_cast<size_t>(instance_->DomainSize(row)));
  Scores(row, scores.data());
  return LogSumExp(scores) - scores[static_cast<size_t>(target_index)];
}

}  // namespace slimfast

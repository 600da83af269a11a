#include "core/lasso.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/compiled_instance.h"
#include "core/erm.h"
#include "core/model.h"
#include "util/math.h"
#include "util/strings.h"

namespace slimfast {

std::vector<FeatureId> LassoPath::ImportanceOrder() const {
  std::vector<FeatureId> order;
  for (FeatureId k = 0; k < static_cast<FeatureId>(feature_names.size());
       ++k) {
    if (activation_index[static_cast<size_t>(k)] >= 0) order.push_back(k);
  }
  std::stable_sort(order.begin(), order.end(), [this](FeatureId a, FeatureId b) {
    return activation_index[static_cast<size_t>(a)] <
           activation_index[static_cast<size_t>(b)];
  });
  return order;
}

std::string LassoPath::ToCsv() const {
  std::ostringstream out;
  out << "penalty,mu";
  for (const std::string& name : feature_names) out << "," << name;
  out << "\n";
  for (const LassoPathPoint& point : points) {
    out << FormatDouble(point.penalty, 6) << "," << FormatDouble(point.mu, 4);
    for (double w : point.feature_weights) out << "," << FormatDouble(w, 5);
    out << "\n";
  }
  return out.str();
}

Result<LassoPath> ComputeLassoPath(const Dataset& dataset,
                                   const TrainTestSplit& split,
                                   const LassoPathOptions& options,
                                   Rng* rng) {
  if (dataset.features().num_features() == 0) {
    return Status::FailedPrecondition(
        "Lasso path requires a dataset with domain features");
  }
  std::vector<double> penalties = options.penalties;
  if (penalties.empty()) {
    if (options.num_penalties < 2 || options.min_penalty <= 0.0 ||
        options.max_penalty <= options.min_penalty) {
      return Status::InvalidArgument("invalid Lasso penalty grid");
    }
    double ratio = std::pow(options.min_penalty / options.max_penalty,
                            1.0 / (options.num_penalties - 1));
    double p = options.max_penalty;
    for (int32_t i = 0; i < options.num_penalties; ++i) {
      penalties.push_back(p);
      p *= ratio;
    }
  } else {
    std::sort(penalties.begin(), penalties.end(), std::greater<double>());
  }

  ModelConfig config;
  config.use_source_weights = false;
  config.use_feature_weights = true;
  SLIMFAST_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledInstance> instance,
                            CompileInstance(dataset, config));
  SlimFastModel model(std::move(instance));

  auto examples =
      ErmLearner::ObjectExamples(model.instance(), split.train_objects);
  if (examples.empty()) {
    return Status::FailedPrecondition(
        "Lasso path requires training labels in the split");
  }

  LassoPath path;
  for (FeatureId k = 0; k < dataset.features().num_features(); ++k) {
    path.feature_names.push_back(dataset.features().FeatureName(k));
  }
  path.activation_index.assign(path.feature_names.size(), -1);

  const ParamLayout& layout = model.layout();
  for (size_t i = 0; i < penalties.size(); ++i) {
    ErmOptions erm_options = options.erm;
    erm_options.l1 = penalties[i];
    ErmLearner learner(erm_options);
    // Warm start: the model keeps the previous penalty's weights.
    SLIMFAST_ASSIGN_OR_RETURN(FitStats stats,
                              learner.FitObjectLoss(examples, &model, rng));
    (void)stats;

    LassoPathPoint point;
    point.penalty = penalties[i];
    point.feature_weights.resize(
        static_cast<size_t>(layout.num_feature_params));
    for (int32_t k = 0; k < layout.num_feature_params; ++k) {
      double w = model.weights()[static_cast<size_t>(layout.feature_offset + k)];
      point.feature_weights[static_cast<size_t>(k)] = w;
      if (w != 0.0) {
        ++point.num_nonzero;
        if (path.activation_index[static_cast<size_t>(k)] < 0) {
          path.activation_index[static_cast<size_t>(k)] =
              static_cast<int32_t>(i);
        }
      }
    }
    path.points.push_back(std::move(point));
  }

  // Normalized µ axis: |w|_1 relative to the largest |w|_1 on the path.
  double max_l1 = 0.0;
  for (const LassoPathPoint& point : path.points) {
    max_l1 = std::max(max_l1, L1Norm(point.feature_weights));
  }
  for (LassoPathPoint& point : path.points) {
    point.mu = max_l1 > 0.0 ? L1Norm(point.feature_weights) / max_l1 : 0.0;
  }
  return path;
}

}  // namespace slimfast

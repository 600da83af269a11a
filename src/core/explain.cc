#include "core/explain.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/math.h"
#include "util/strings.h"

namespace slimfast {

namespace {

/// Decomposes σ_s into the indicator weight plus per-feature terms.
void DecomposeSigma(const SlimFastModel& model, const Dataset& dataset,
                    SourceId source, double* source_weight,
                    std::vector<std::string>* names,
                    std::vector<double>* weights) {
  const ParamLayout& layout = model.layout();
  *source_weight = 0.0;
  names->clear();
  weights->clear();
  if (layout.num_source_params > 0) {
    *source_weight =
        model.weights()[static_cast<size_t>(layout.source_offset + source)];
  }
  if (layout.num_feature_params > 0) {
    for (FeatureId k : dataset.features().FeaturesOf(source)) {
      names->push_back(dataset.features().FeatureName(k));
      weights->push_back(
          model.weights()[static_cast<size_t>(layout.feature_offset + k)]);
    }
  }
}

}  // namespace

Result<ObjectExplanation> ExplainObject(const SlimFastModel& model,
                                        const Dataset& dataset,
                                        ObjectId object) {
  if (object < 0 || object >= dataset.num_objects()) {
    return Status::OutOfRange("object id out of range");
  }
  const CompiledInstance& inst = model.instance();
  const int32_t row = inst.RowIndex(object);
  if (row < 0) {
    return Status::FailedPrecondition(
        "object has no observations; nothing to explain");
  }

  ObjectExplanation out;
  out.object = object;
  const int64_t cand = inst.row_begin[static_cast<size_t>(row)];
  out.candidates.assign(
      inst.cand_values.begin() + cand,
      inst.cand_values.begin() + cand + inst.DomainSize(row));
  std::vector<double> probs;
  model.Posterior(row, &probs);
  out.posterior = probs;

  // Predicted and runner-up by posterior.
  size_t best = 0;
  for (size_t di = 1; di < probs.size(); ++di) {
    if (probs[di] > probs[best]) best = di;
  }
  size_t second = best == 0 ? (probs.size() > 1 ? 1 : 0) : 0;
  for (size_t di = 0; di < probs.size(); ++di) {
    if (di != best && probs[di] > probs[second]) second = di;
  }
  out.predicted = out.candidates[best];
  out.runner_up = probs.size() > 1 ? out.candidates[second] : kNoValue;
  out.log_odds_margin =
      probs.size() > 1
          ? model.ValueScore(cand + static_cast<int64_t>(best)) -
                model.ValueScore(cand + static_cast<int64_t>(second))
          : std::numeric_limits<double>::infinity();

  for (const SourceClaim& claim : dataset.ClaimsOnObject(object)) {
    ClaimContribution c;
    c.source = claim.source;
    c.value = claim.value;
    c.trust_score = model.SourceScore(claim.source);
    c.accuracy = Sigmoid(c.trust_score);
    DecomposeSigma(model, dataset, claim.source, &c.source_weight,
                   &c.feature_names, &c.feature_weights);
    out.claims.push_back(std::move(c));
  }
  // Strongest votes first.
  std::sort(out.claims.begin(), out.claims.end(),
            [](const ClaimContribution& a, const ClaimContribution& b) {
              return std::fabs(a.trust_score) > std::fabs(b.trust_score);
            });
  return out;
}

std::string ObjectExplanation::ToString() const {
  std::ostringstream s;
  s << "Object " << object << ": predicted value " << predicted;
  if (runner_up != kNoValue) {
    s << " (margin " << FormatDouble(log_odds_margin, 3)
      << " log-odds over value " << runner_up << ")";
  }
  s << "\n  posterior:";
  for (size_t di = 0; di < candidates.size(); ++di) {
    s << " P(v=" << candidates[di]
      << ")=" << FormatDouble(posterior[di], 3);
  }
  s << "\n  claims (strongest first):\n";
  for (const ClaimContribution& c : claims) {
    s << "    source " << c.source << " claims " << c.value
      << "  sigma=" << FormatDouble(c.trust_score, 3)
      << " (accuracy " << FormatDouble(c.accuracy, 3) << ")"
      << " = w_src " << FormatDouble(c.source_weight, 3);
    for (size_t i = 0; i < c.feature_names.size(); ++i) {
      s << " + [" << c.feature_names[i] << "] "
        << FormatDouble(c.feature_weights[i], 3);
    }
    s << "\n";
  }
  return s.str();
}

SourceExplanation ExplainSource(const SlimFastModel& model,
                                const Dataset& dataset, SourceId source) {
  SourceExplanation out;
  out.source = source;
  out.trust_score = model.SourceScore(source);
  out.accuracy = Sigmoid(out.trust_score);
  DecomposeSigma(model, dataset, source, &out.source_weight,
                 &out.feature_names, &out.feature_weights);
  // Sort features by absolute impact.
  std::vector<size_t> order(out.feature_names.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::fabs(out.feature_weights[a]) >
           std::fabs(out.feature_weights[b]);
  });
  std::vector<std::string> names;
  std::vector<double> weights;
  for (size_t i : order) {
    names.push_back(out.feature_names[i]);
    weights.push_back(out.feature_weights[i]);
  }
  out.feature_names = std::move(names);
  out.feature_weights = std::move(weights);
  return out;
}

std::string SourceExplanation::ToString() const {
  std::ostringstream s;
  s << "Source " << source << ": accuracy "
    << FormatDouble(accuracy, 3) << " (sigma "
    << FormatDouble(trust_score, 3) << ")\n"
    << "  indicator weight: " << FormatDouble(source_weight, 3) << "\n";
  for (size_t i = 0; i < feature_names.size(); ++i) {
    s << "  feature [" << feature_names[i]
      << "]: " << FormatDouble(feature_weights[i], 3) << "\n";
  }
  return s.str();
}

}  // namespace slimfast

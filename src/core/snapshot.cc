#include "core/snapshot.h"

#include <algorithm>

namespace slimfast {

namespace {
bool InUniverse(const FusionSnapshot& snapshot, ObjectId object) {
  return object >= 0 && object < snapshot.num_objects;
}
}  // namespace

ValueId FusionSnapshot::Prediction(ObjectId object) const {
  if (!has_model() || !InUniverse(*this, object)) return kNoValue;
  return predictions[static_cast<size_t>(object)];
}

double FusionSnapshot::Confidence(ObjectId object) const {
  if (!has_model() || !InUniverse(*this, object)) return 0.0;
  const size_t o = static_cast<size_t>(object);
  const auto begin = posterior_probs.begin() + posterior_begin[o];
  const auto end = posterior_probs.begin() + posterior_begin[o + 1];
  return begin == end ? 0.0 : *std::max_element(begin, end);
}

bool FusionSnapshot::PosteriorOf(ObjectId object,
                                 std::vector<ValueId>* values,
                                 std::vector<double>* probs) const {
  if (!has_model() || !InUniverse(*this, object)) return false;
  const size_t o = static_cast<size_t>(object);
  const int64_t begin = posterior_begin[o];
  const int64_t end = posterior_begin[o + 1];
  if (begin >= end) return false;
  if (values != nullptr) {
    values->assign(posterior_values.begin() + begin,
                   posterior_values.begin() + end);
  }
  if (probs != nullptr) {
    probs->assign(posterior_probs.begin() + begin,
                  posterior_probs.begin() + end);
  }
  return true;
}

}  // namespace slimfast

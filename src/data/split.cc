#include "data/split.h"

#include <algorithm>
#include <cmath>

namespace slimfast {

Result<TrainTestSplit> MakeSplit(const Dataset& dataset,
                                 double train_fraction, Rng* rng) {
  if (train_fraction < 0.0 || train_fraction > 1.0) {
    return Status::InvalidArgument("train_fraction must be in [0, 1]");
  }
  const std::vector<ObjectId>& labeled = dataset.ObjectsWithTruth();
  if (labeled.empty()) {
    return Status::FailedPrecondition(
        "dataset has no ground-truth-labeled objects to split");
  }
  int64_t n = static_cast<int64_t>(labeled.size());
  int64_t k = static_cast<int64_t>(
      std::llround(train_fraction * static_cast<double>(n)));
  if (train_fraction > 0.0 && k == 0) k = 1;
  if (train_fraction < 1.0 && k == n) k = n - 1;

  std::vector<int64_t> picks = rng->SampleWithoutReplacement(n, k);
  TrainTestSplit split;
  split.is_train.assign(static_cast<size_t>(dataset.num_objects()), 0);
  split.train_objects.reserve(static_cast<size_t>(k));
  for (int64_t idx : picks) {
    ObjectId o = labeled[static_cast<size_t>(idx)];
    split.train_objects.push_back(o);
    split.is_train[static_cast<size_t>(o)] = 1;
  }
  std::sort(split.train_objects.begin(), split.train_objects.end());
  split.test_objects.reserve(static_cast<size_t>(n - k));
  for (ObjectId o : labeled) {
    if (!split.IsTrain(o)) split.test_objects.push_back(o);
  }
  return split;
}

}  // namespace slimfast

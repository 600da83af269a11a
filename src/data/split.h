#ifndef SLIMFAST_DATA_SPLIT_H_
#define SLIMFAST_DATA_SPLIT_H_

#include <vector>

#include "data/dataset.h"
#include "util/random.h"
#include "util/result.h"

namespace slimfast {

/// A train/test partition of the ground-truth-labeled objects of a dataset.
///
/// Experiments reveal the truth of `train_objects` to a fusion method (the
/// ground truth G of the paper) and measure object-value accuracy on
/// `test_objects`, mirroring the paper's evaluation methodology (Sec. 5.1).
struct TrainTestSplit {
  std::vector<ObjectId> train_objects;
  std::vector<ObjectId> test_objects;
  /// Per-object membership bitmap sized num_objects (1 = training).
  std::vector<uint8_t> is_train;

  bool IsTrain(ObjectId object) const {
    return is_train[static_cast<size_t>(object)] != 0;
  }
};

/// Randomly assigns a `train_fraction` of the labeled objects to training.
///
/// The split always contains at least one training object when
/// train_fraction > 0 and at least one test object when train_fraction < 1
/// (matching how the paper sweeps tiny fractions such as 0.1%). Fails if the
/// dataset has no labeled objects or the fraction is outside [0, 1].
Result<TrainTestSplit> MakeSplit(const Dataset& dataset,
                                 double train_fraction, Rng* rng);

}  // namespace slimfast

#endif  // SLIMFAST_DATA_SPLIT_H_

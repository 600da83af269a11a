#ifndef SLIMFAST_BASELINES_ACCU_H_
#define SLIMFAST_BASELINES_ACCU_H_

#include <string>

#include "data/fusion.h"

namespace slimfast {

/// ACCU — the Bayesian fusion model of Dong et al. [9] without source
/// copying, as configured in Sec. 5.1.
///
/// Iterates between (a) Bayesian truth inference, where a source claiming
/// value v contributes vote ln(n · A_s / (1 - A_s)) with n = |D_o| - 1
/// false values assumed uniform, and (b) accuracy re-estimation, where
/// A_s is the mean posterior probability of the values the source claims.
/// Revealed ground truth initializes the accuracies (as suggested in [9])
/// and stays clamped as evidence during the iterations.
class Accu : public FusionMethod {
 public:
  std::string name() const override { return "ACCU"; }

  Result<FusionOutput> Run(const Dataset& dataset,
                           const TrainTestSplit& split,
                           uint64_t seed) override;
};

}  // namespace slimfast

#endif  // SLIMFAST_BASELINES_ACCU_H_

// Table 4: evaluating SLiMFast's optimizer at choosing between EM and ERM.
//
// For every dataset and training fraction we run SLiMFast-ERM and
// SLiMFast-EM, record which one actually wins, and compare against the
// optimizer's decision (tau = 0.1, as in the paper).

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "core/compiled_instance.h"
#include "core/optimizer.h"
#include "core/slimfast.h"
#include "eval/metrics.h"
#include "synth/simulators.h"
#include "util/math.h"
#include "util/random.h"

using namespace slimfast;

int main() {
  bench::PrintHeader("Table 4: optimizer decisions (EM vs ERM)",
                     "Table 4 (Sec. 5.2.3), tau = 0.1");

  std::printf("%-10s %-7s %-10s %-9s %-9s %-9s %s\n", "dataset", "TD(%)",
              "decision", "correct", "ERM acc", "EM acc", "diff(%)");

  int32_t correct_count = 0;
  int32_t total_count = 0;
  for (const std::string& name : SimulatorNames()) {
    auto synth = MakeSimulatorByName(name, /*seed=*/42).ValueOrDie();
    const Dataset& dataset = synth.dataset;
    auto instance = CompileInstance(dataset, ModelConfig{}).ValueOrDie();

    for (double fraction : bench::PaperFractions()) {
      std::vector<double> erm_scores;
      std::vector<double> em_scores;
      Algorithm decision = Algorithm::kErm;
      for (int32_t rep = 0; rep < bench::NumSeeds(); ++rep) {
        uint64_t seed = 42 + 1000003ULL * static_cast<uint64_t>(rep);
        Rng rng(seed);
        auto split = MakeSplit(dataset, fraction, &rng).ValueOrDie();
        if (rep == 0) {
          decision = DecideAlgorithm(dataset, split,
                                     instance->model->layout.num_params,
                                     OptimizerOptions{})
                         .algorithm;
        }
        auto erm = MakeSlimFastErm()->Run(dataset, split, seed).ValueOrDie();
        auto em = MakeSlimFastEm()->Run(dataset, split, seed).ValueOrDie();
        erm_scores.push_back(
            TestAccuracy(dataset, erm.predicted_values, split).ValueOrDie());
        em_scores.push_back(
            TestAccuracy(dataset, em.predicted_values, split).ValueOrDie());
      }
      double erm_acc = Mean(erm_scores);
      double em_acc = Mean(em_scores);
      // "Correct" uses the paper's convention: ties (within 0.5%) count
      // as correct for either decision.
      Algorithm actual_best =
          erm_acc >= em_acc ? Algorithm::kErm : Algorithm::kEm;
      double diff = std::fabs(erm_acc - em_acc) /
                    std::max(1e-9, std::min(erm_acc, em_acc)) * 100.0;
      bool correct = decision == actual_best || diff < 0.5;
      correct_count += correct ? 1 : 0;
      ++total_count;
      std::printf("%-10s %-7.1f %-10s %-9s %-9.3f %-9.3f %.1f\n",
                  name.c_str(), fraction * 100,
                  decision == Algorithm::kErm ? "ERM" : "EM",
                  correct ? "Y" : "N", erm_acc, em_acc, diff);
    }
  }
  std::printf("\nOptimizer correct on %d / %d configurations "
              "(paper: 19 / 20).\n",
              correct_count, total_count);
  return 0;
}

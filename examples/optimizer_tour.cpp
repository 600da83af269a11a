// Optimizer tour: watch SLiMFast's optimizer (Sec. 4.3) choose between
// ERM and EM across the four simulated datasets and increasing amounts of
// ground truth — the decision process behind Table 4 and Figure 5.
//
// Build & run:  ./build/examples/optimizer_tour

#include <cstdio>

#include "core/compiled_instance.h"
#include "core/optimizer.h"
#include "synth/simulators.h"
#include "util/random.h"

using namespace slimfast;

int main() {
  std::printf("%-10s %-7s %-9s %-11s %-11s %-9s %s\n", "dataset", "TD(%)",
              "est.acc", "ERM units", "EM units", "bound", "decision");
  for (const std::string& name : SimulatorNames()) {
    auto synth = MakeSimulatorByName(name, /*seed=*/42).ValueOrDie();
    const Dataset& dataset = synth.dataset;
    auto instance = CompileInstance(dataset, ModelConfig{}).ValueOrDie();
    for (double fraction : {0.001, 0.01, 0.05, 0.10, 0.20}) {
      Rng rng(11);
      auto split = MakeSplit(dataset, fraction, &rng).ValueOrDie();
      OptimizerDecision decision =
          DecideAlgorithm(instance->store, split,
                          instance->model->layout.num_params,
                          OptimizerOptions{});
      std::printf("%-10s %-7.1f %-9.3f %-11.0f %-11.0f %-9.2f %s%s\n",
                  name.c_str(), fraction * 100,
                  decision.estimated_avg_accuracy, decision.erm_units,
                  decision.em_units, decision.erm_bound,
                  decision.algorithm == Algorithm::kErm ? "ERM" : "EM",
                  decision.bound_fast_path ? " (fast path)" : "");
    }
  }
  std::printf(
      "\nReading the tradeoff (Figure 5): adversarial/low-agreement "
      "instances (stocks) yield\nno EM units, so any ground truth picks "
      "ERM; dense accurate instances (demos) favor EM\nuntil labels "
      "accumulate; sparse instances sit in between.\n");
  return 0;
}

// Ablation: robustness of the optimizer to the threshold tau
// (the Sec. 5.2.3 robustness study, tau in {0.01, 0.1, 0.5, 1.0}).

#include <cstdio>

#include "bench_common.h"
#include "core/compiled_instance.h"
#include "core/optimizer.h"
#include "synth/simulators.h"
#include "util/random.h"

using namespace slimfast;

int main() {
  bench::PrintHeader("Ablation: optimizer decisions across tau",
                     "Sec. 5.2.3 robustness study");

  const double taus[] = {0.01, 0.1, 0.5, 1.0};
  std::printf("%-10s %-7s", "dataset", "TD(%)");
  for (double tau : taus) std::printf(" tau=%-6.2f", tau);
  std::printf("\n");

  for (const std::string& name : SimulatorNames()) {
    auto synth = MakeSimulatorByName(name, /*seed=*/42).ValueOrDie();
    const Dataset& dataset = synth.dataset;
    auto instance = CompileInstance(dataset, ModelConfig{}).ValueOrDie();
    for (double fraction : bench::PaperFractions()) {
      Rng rng(11);
      auto split = MakeSplit(dataset, fraction, &rng).ValueOrDie();
      std::printf("%-10s %-7.1f", name.c_str(), fraction * 100);
      for (double tau : taus) {
        OptimizerOptions options;
        options.tau = tau;
        auto decision = DecideAlgorithm(instance->store, split,
                                        instance->model->layout.num_params,
                                        options);
        std::printf(" %-10s",
                    decision.algorithm == Algorithm::kErm ? "ERM" : "EM");
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\nPaper shape check: decisions are stable across two orders of "
      "magnitude of tau\n(the bound fast-path only fires for extreme "
      "label volumes).\n");
  return 0;
}

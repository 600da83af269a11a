// Accuracy parity of the learners on the four paper simulators.
//
// Runs SlimFast::Run on each simulator (seeded 42) at 1% and 10% labels,
// one thread, and averages held-out accuracy over split/run seeds 1-3.
// Every cell is compared with the accuracy the serial SGD M-step reached
// on the same cell before the accuracy-loss solver moved to per-source
// claim counts (pinned below): the default preset may lose at most
// 0.5 pt, the forced SLiMFast-EM preset at most 1.0 pt. Each cell's mean
// Run seconds are printed so a per-simulator slowdown shows up in the log.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/slimfast.h"
#include "data/split.h"
#include "eval/metrics.h"
#include "synth/simulators.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace slimfast {
namespace {

struct ParityCell {
  const char* simulator;
  double train_fraction;
  double pinned_default;  ///< MakeSlimFast mean test accuracy
  double pinned_em;       ///< MakeSlimFastEm mean test accuracy
};

// Mean test accuracy of the SGD M-step, measured with this harness on the
// code before the change (rounded to four places).
constexpr ParityCell kCells[] = {
    {"stocks", 0.01, 0.9614, 0.9614},   {"stocks", 0.10, 0.9624, 0.9624},
    {"demos", 0.01, 0.9326, 0.9326},    {"demos", 0.10, 0.9357, 0.9357},
    {"crowd", 0.01, 0.9420, 0.9420},    {"crowd", 0.10, 0.9410, 0.9410},
    {"genomics", 0.01, 0.5599, 0.5292}, {"genomics", 0.10, 0.6381, 0.6518},
};

constexpr double kDefaultTolerance = 0.005;
constexpr double kForcedEmTolerance = 0.010;

struct CellResult {
  double accuracy = 0.0;
  double seconds = 0.0;
};

CellResult RunCell(const Dataset& dataset, double train_fraction,
                   const std::function<std::unique_ptr<SlimFast>(
                       SlimFastOptions)>& make) {
  SlimFastOptions options;
  options.exec.threads = 1;
  CellResult result;
  constexpr int kSeeds = 3;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed);
    TrainTestSplit split =
        MakeSplit(dataset, train_fraction, &rng).ValueOrDie();
    Stopwatch watch;
    FusionOutput output = make(options)->Run(dataset, split, seed).ValueOrDie();
    result.seconds += watch.ElapsedSeconds();
    result.accuracy +=
        TestAccuracy(dataset, output.predicted_values, split).ValueOrDie();
  }
  result.accuracy /= kSeeds;
  result.seconds /= kSeeds;
  return result;
}

TEST(LearnerParityTest, SimulatorCellsStayWithinToleranceOfSgd) {
  for (const ParityCell& cell : kCells) {
    SyntheticDataset synth =
        MakeSimulatorByName(cell.simulator, 42).ValueOrDie();
    const std::string name = std::string(cell.simulator) + " " +
                             std::to_string(cell.train_fraction);
    SCOPED_TRACE(name);
    const CellResult by_default = RunCell(
        synth.dataset, cell.train_fraction,
        [](SlimFastOptions o) { return MakeSlimFast(o); });
    const CellResult forced_em = RunCell(
        synth.dataset, cell.train_fraction,
        [](SlimFastOptions o) { return MakeSlimFastEm(o); });
    std::printf(
        "parity %-8s %4.0f%%  default %.4f (pinned %.4f, %.3f s/run)  "
        "SLiMFast-EM %.4f (pinned %.4f, %.3f s/run)\n",
        cell.simulator, 100.0 * cell.train_fraction, by_default.accuracy,
        cell.pinned_default, by_default.seconds, forced_em.accuracy,
        cell.pinned_em, forced_em.seconds);
    EXPECT_GE(by_default.accuracy, cell.pinned_default - kDefaultTolerance);
    EXPECT_GE(forced_em.accuracy, cell.pinned_em - kForcedEmTolerance);
  }
}

}  // namespace
}  // namespace slimfast

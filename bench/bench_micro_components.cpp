// Micro-benchmarks (google-benchmark) of the library's hot components:
// model compilation, posterior evaluation, ERM epochs, EM iterations, and
// agreement-matrix construction. These back the runtime
// claims of Tables 5/6 with per-component numbers.

#include <benchmark/benchmark.h>

#include "core/em.h"
#include "core/erm.h"
#include "core/model.h"
#include "opt/matrix_completion.h"
#include "synth/synthetic.h"
#include "util/random.h"

namespace slimfast {
namespace {

SyntheticDataset MakeBenchInstance(int32_t sources, int32_t objects,
                                   double density) {
  SyntheticConfig config;
  config.num_sources = sources;
  config.num_objects = objects;
  config.density = density;
  config.mean_accuracy = 0.7;
  config.accuracy_spread = 0.1;
  config.num_feature_groups = 4;
  config.values_per_group = 8;
  config.feature_effect = 0.1;
  return GenerateSynthetic(config, 42).ValueOrDie();
}

void BM_Compile(benchmark::State& state) {
  auto synth = MakeBenchInstance(static_cast<int32_t>(state.range(0)),
                                 1000, 0.02);
  for (auto _ : state) {
    auto instance =
        CompileInstance(synth.dataset, ModelConfig{}).ValueOrDie();
    benchmark::DoNotOptimize(instance->num_rows());
  }
  state.SetItemsProcessed(state.iterations() *
                          synth.dataset.num_observations());
}
BENCHMARK(BM_Compile)->Arg(100)->Arg(500)->Arg(1000);

void BM_PosteriorAllObjects(benchmark::State& state) {
  auto synth = MakeBenchInstance(500, 1000, 0.02);
  SlimFastModel model(
      CompileInstance(synth.dataset, ModelConfig{}).ValueOrDie());
  const int32_t num_rows = model.instance().num_rows();
  std::vector<double> probs;
  for (auto _ : state) {
    for (int32_t row = 0; row < num_rows; ++row) {
      model.Posterior(row, &probs);
      benchmark::DoNotOptimize(probs.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * num_rows);
}
BENCHMARK(BM_PosteriorAllObjects);

void BM_ErmEpoch(benchmark::State& state) {
  auto synth = MakeBenchInstance(500, 1000, 0.02);
  const Dataset& d = synth.dataset;
  SlimFastModel model(CompileInstance(d, ModelConfig{}).ValueOrDie());
  auto examples =
      ErmLearner::ObjectExamples(model.instance(), d.ObjectsWithTruth());
  ErmOptions options;
  options.epochs = 1;
  ErmLearner learner(options);
  Rng rng(1);
  for (auto _ : state) {
    auto stats = learner.FitObjectLoss(examples, &model, &rng);
    benchmark::DoNotOptimize(stats.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(examples.size()));
}
BENCHMARK(BM_ErmEpoch);

void BM_EmIteration(benchmark::State& state) {
  auto synth = MakeBenchInstance(500, 1000, 0.02);
  const Dataset& d = synth.dataset;
  ModelConfig config;
  EmOptions options;
  options.max_iterations = 1;
  EmLearner learner(options);
  for (auto _ : state) {
    SlimFastModel model(CompileInstance(d, config).ValueOrDie());
    Rng rng(1);
    auto stats = learner.Fit(d, {}, &model, &rng);
    benchmark::DoNotOptimize(stats.ok());
  }
}
BENCHMARK(BM_EmIteration);

void BM_AgreementMatrix(benchmark::State& state) {
  auto synth = MakeBenchInstance(static_cast<int32_t>(state.range(0)),
                                 1000, 0.02);
  for (auto _ : state) {
    AgreementMatrix matrix(synth.dataset);
    benchmark::DoNotOptimize(matrix.NumObservedPairs());
  }
}
BENCHMARK(BM_AgreementMatrix)->Arg(100)->Arg(500)->Arg(1000);

}  // namespace
}  // namespace slimfast

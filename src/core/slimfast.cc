#include "core/slimfast.h"

#include "core/em.h"
#include "core/erm.h"
#include "obs/registry.h"
#include "obs/stage.h"
#include "util/stopwatch.h"

namespace slimfast {

namespace {

/// Minimum ERM epochs of a warm-started relearn (see WarmBudget).
constexpr int32_t kMinWarmErmEpochs = 8;

}  // namespace

Result<SlimFastFit> SlimFast::Fit(const Dataset& dataset,
                                  const TrainTestSplit& split,
                                  uint64_t seed, Executor* exec) const {
  // Compilation (or a lookup in the process-wide cache) into the
  // immutable CompiledInstance every learning stage reads.
  static obs::LatencyHistogram* compile_hist =
      obs::GetHistogram("slimfast_core_compile_seconds");
  obs::Stage compile_stage("core.compile", compile_hist);
  SLIMFAST_ASSIGN_OR_RETURN(
      std::shared_ptr<const CompiledInstance> instance,
      CompiledInstanceCache::Global().GetOrCompile(dataset, options_.model));
  const double compile_seconds = compile_stage.End();
  SLIMFAST_ASSIGN_OR_RETURN(
      SlimFastFit fit,
      FitCompiled(split, seed, std::move(instance), /*warm_weights=*/nullptr,
                  exec));
  fit.compile_seconds = compile_seconds;
  return fit;
}

Result<SlimFastFit> SlimFast::FitCompiled(
    const Dataset& /*dataset*/, const TrainTestSplit& split, uint64_t seed,
    std::shared_ptr<const CompiledInstance> instance,
    const std::vector<double>* warm_weights, Executor* exec) const {
  return FitCompiled(split, seed, std::move(instance), warm_weights, exec);
}

Result<SlimFastFit> SlimFast::FitCompiled(
    const TrainTestSplit& split, uint64_t seed,
    std::shared_ptr<const CompiledInstance> instance,
    const std::vector<double>* warm_weights, Executor* exec) const {
  if (instance == nullptr) {
    return Status::InvalidArgument("FitCompiled requires an instance");
  }
  OptimizerDecision decision;
  Algorithm algorithm = options_.algorithm;
  if (algorithm == Algorithm::kAuto) {
    static obs::LatencyHistogram* optimizer_hist =
        obs::GetHistogram("slimfast_core_optimizer_seconds");
    obs::Stage stage("core.optimizer", optimizer_hist);
    decision = DecideAlgorithm(instance->store, split,
                               instance->model->layout.num_params,
                               options_.optimizer);
    algorithm = decision.algorithm;
  } else {
    decision.algorithm = algorithm;
  }

  // Warm start: seed from the previous fit's weights and shrink the
  // learning budget (EM shrinks its own, given the warm flag). A layout
  // mismatch (the parameter universe changed) silently falls back to a
  // cold fit — correctness first.
  const bool warm = warm_weights != nullptr &&
                    warm_weights->size() ==
                        static_cast<size_t>(instance->model->layout.num_params);
  ErmOptions erm_options = options_.erm;
  if (warm) {
    erm_options.epochs = WarmBudget(erm_options.epochs, kMinWarmErmEpochs);
  }

  // Per-algorithm learn timings: EM runs ~200x longer than a warm ERM
  // relearn, so folding them into one histogram would bury the warm
  // relearns' signal.
  static obs::LatencyHistogram* erm_hist =
      obs::GetHistogram("slimfast_core_learn_seconds{algorithm=\"erm\"}");
  static obs::LatencyHistogram* em_hist =
      obs::GetHistogram("slimfast_core_learn_seconds{algorithm=\"em\"}");
  obs::Stage learn_stage("core.learn",
                         algorithm == Algorithm::kErm ? erm_hist : em_hist);
  SlimFastModel model(std::move(instance));
  if (warm) model.SetWeights(*warm_weights);
  Rng rng(seed);
  int32_t learn_iterations = 0;
  bool learn_converged = false;
  double learn_objective = 0.0;
  if (algorithm == Algorithm::kErm) {
    ErmLearner learner(erm_options);
    auto stats = learner.Fit(split.train_objects, &model, &rng, exec);
    if (!stats.ok()) {
      // No usable ground truth for ERM (e.g. 0% training data with a
      // forced-ERM preset): fall back to EM rather than failing the run.
      EmLearner em(options_.em);
      SLIMFAST_ASSIGN_OR_RETURN(
          EmStats em_stats,
          em.Fit(split.train_objects, &model, &rng, exec, warm));
      learn_iterations = em_stats.iterations;
      learn_converged = em_stats.converged;
      learn_objective = em_stats.final_expected_nll;
      algorithm = Algorithm::kEm;
      learn_stage.set_histogram(em_hist);
    } else {
      const FitStats& erm_stats = stats.ValueOrDie();
      learn_iterations = erm_stats.epochs;
      learn_converged = erm_stats.converged;
      learn_objective = erm_stats.final_loss;
    }
  } else {
    EmLearner learner(options_.em);
    SLIMFAST_ASSIGN_OR_RETURN(
        EmStats em_stats,
        learner.Fit(split.train_objects, &model, &rng, exec, warm));
    learn_iterations = em_stats.iterations;
    learn_converged = em_stats.converged;
    learn_objective = em_stats.final_expected_nll;
  }

  const double learn_seconds = learn_stage.End();
  SlimFastFit fit{std::move(model), decision, algorithm,
                  /*compile_seconds=*/0.0, learn_seconds, warm};
  fit.learn_iterations = learn_iterations;
  fit.learn_converged = learn_converged;
  fit.learn_objective = learn_objective;
  return fit;
}

Result<FusionOutput> SlimFast::Run(const Dataset& dataset,
                                   const TrainTestSplit& split,
                                   uint64_t seed) {
  Executor exec(options_.exec);
  SLIMFAST_ASSIGN_OR_RETURN(SlimFastFit fit,
                            Fit(dataset, split, seed, &exec));

  Stopwatch infer_watch;
  FusionOutput output;
  output.method_name = name_;
  output.detail = fit.decision.ToString();

  output.predicted_values = fit.model.PredictAll();
  output.source_accuracies = fit.model.AllSourceAccuracies();
  if (fit.algorithm_used == Algorithm::kErm && !split.train_objects.empty()) {
    // Definition 7 calibration pass: warm-start a copy of the model and
    // fit the accuracy log-loss on the labeled claims, with the solver
    // settings EM's M-step uses (run to tolerance). The object loss can
    // leave accuracies uncalibrated once the labeled posteriors saturate
    // (weights stop moving while A_s is still far from the empirical
    // rate). Only the reported accuracies change; predictions keep the
    // discriminative optimum.
    SlimFastModel calibrated(fit.model.shared_instance());
    calibrated.SetWeights(fit.model.weights());
    auto stats = ErmLearner(options_.em.m_step).FitAccuracyLoss(
        ErmLearner::ObservationCounts(calibrated.instance().store,
                                      split.train_objects),
        &calibrated);
    if (stats.ok()) {
      output.source_accuracies = calibrated.AllSourceAccuracies();
    }
  }
  output.compile_seconds = fit.compile_seconds;
  output.learn_seconds = fit.learn_seconds;
  output.infer_seconds = infer_watch.ElapsedSeconds();
  return output;
}

namespace {
std::unique_ptr<SlimFast> MakeVariant(SlimFastOptions options,
                                      bool features, Algorithm algorithm,
                                      const char* name) {
  options.model.use_feature_weights = features;
  options.algorithm = algorithm;
  return std::make_unique<SlimFast>(options, name);
}
}  // namespace

std::unique_ptr<SlimFast> MakeSlimFast(SlimFastOptions options) {
  return MakeVariant(options, true, Algorithm::kAuto, "SLiMFast");
}
std::unique_ptr<SlimFast> MakeSlimFastErm(SlimFastOptions options) {
  return MakeVariant(options, true, Algorithm::kErm, "SLiMFast-ERM");
}
std::unique_ptr<SlimFast> MakeSlimFastEm(SlimFastOptions options) {
  return MakeVariant(options, true, Algorithm::kEm, "SLiMFast-EM");
}
std::unique_ptr<SlimFast> MakeSourcesErm(SlimFastOptions options) {
  return MakeVariant(options, false, Algorithm::kErm, "Sources-ERM");
}
std::unique_ptr<SlimFast> MakeSourcesEm(SlimFastOptions options) {
  return MakeVariant(options, false, Algorithm::kEm, "Sources-EM");
}

}  // namespace slimfast

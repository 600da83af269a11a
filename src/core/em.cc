#include "core/em.h"

#include <cmath>

#include "exec/parallel.h"
#include "opt/convergence.h"
#include "simd/simd.h"
#include "util/math.h"

namespace slimfast {

namespace {

/// Prior source accuracy: with no usable ground truth the source weights
/// start at its logit, so the first E-step is a majority vote.
constexpr double kInitAccuracy = 0.7;
/// Convergence on the expected log-likelihood: a relative change below
/// kTolerance for kPatience consecutive rounds stops EM.
constexpr double kTolerance = 1e-5;
constexpr int32_t kPatience = 2;
/// Minimum rounds of a warm-started run (see WarmBudget).
constexpr int32_t kMinWarmIterations = 2;

/// Counts one unclamped row's MAP-imputed targets and adds its NLL
/// contribution. `probs` is the row's posterior; claims arrive as
/// parallel arrays of source and within-row candidate index (-1 = claimed
/// value outside the domain).
inline void CountRow(const double* probs, int64_t domain_size,
                     const SourceId* claim_src, const int32_t* claim_di,
                     int64_t num_claims, EStepCounts* acc) {
  if (domain_size == 0) return;  // degenerate row: nothing to impute
  double* mass = acc->counts.mass.data();
  double* correct = acc->counts.correct.data();
  int32_t map_index = 0;
  for (int64_t di = 1; di < domain_size; ++di) {
    if (probs[di] > probs[map_index]) map_index = static_cast<int32_t>(di);
  }
  for (int64_t i = 0; i < num_claims; ++i) {
    mass[claim_src[i]] += 1.0;
    if (claim_di[i] == map_index) correct[claim_src[i]] += 1.0;
  }
  acc->nll += -std::log(std::max(probs[map_index], 1e-300));
}

/// The batched E-step over shard `range`: instead of one posterior at a
/// time, the whole shard's CSR span runs as three kernel passes —
/// TermProducts over every term, FoldRanges into per-candidate scores and
/// SoftmaxRows over every row at once — before a scalar counting walk
/// over the claims. Clamped rows' posteriors are computed and discarded:
/// keeping the spans contiguous beats compacting them (clamped rows are a
/// small training fraction), and counting skips them. The scores are
/// bit-identical to SlimFastModel::Scores by the lane-stable kernel
/// contract (see src/simd/simd.h).
void EStepShard(const SlimFastModel& model,
                const std::vector<uint8_t>& clamped, const ShardRange& range,
                EStepCounts* acc) {
  const int64_t num_rows = range.end - range.begin;
  if (num_rows <= 0) return;
  const CompiledInstance& inst = model.instance();
  const int64_t* row_begin = inst.row_begin.data();
  const int64_t* term_begin = inst.term_begin.data();
  const int64_t* claim_begin = inst.claim_begin.data();
  const int64_t cand_b = row_begin[range.begin];
  const int64_t ncand = row_begin[range.end] - cand_b;
  if (ncand == 0) return;
  const int64_t term_b = term_begin[cand_b];
  const int64_t nterms = term_begin[row_begin[range.end]] - term_b;

  std::vector<double> prod(static_cast<size_t>(nterms));
  std::vector<double> scores(static_cast<size_t>(ncand));
  simd::TermProducts(inst.term_coeff.data() + term_b,
                     inst.term_param.data() + term_b, model.weights().data(),
                     prod.data(), nterms);
  simd::FoldRanges(term_begin + cand_b, ncand, term_b, prod.data(),
                   inst.cand_offsets.data() + cand_b, scores.data());
  simd::SoftmaxRows(row_begin + range.begin, num_rows, cand_b, scores.data());

  for (int64_t r = range.begin; r < range.end; ++r) {
    if (clamped[static_cast<size_t>(r)]) continue;
    const int64_t row_base = row_begin[r];
    const int64_t cb = claim_begin[r];
    CountRow(scores.data() + (row_base - cand_b), row_begin[r + 1] - row_base,
             inst.claim_sources.data() + cb, inst.claim_cand.data() + cb,
             claim_begin[r + 1] - cb, acc);
  }
}

}  // namespace

EStepCounts EmLearner::EStep(const SlimFastModel& model,
                             const std::vector<ObjectId>& train_objects,
                             Executor* exec) const {
  // Rows are sharded contiguously and the per-shard counts are folded in
  // shard order, so the counts are identical for every thread count. The
  // rows of labeled train objects are counted against their truth (last
  // line), never imputed.
  const CompiledInstance& inst = model.instance();
  std::vector<uint8_t> clamped(static_cast<size_t>(inst.num_rows()), 0);
  for (ObjectId o : train_objects) {
    const int32_t row = inst.RowIndex(o);
    if (row >= 0 && inst.store.HasTruth(o)) {
      clamped[static_cast<size_t>(row)] = 1;
    }
  }
  EStepCounts estep = DeterministicReduce(
      exec, inst.num_rows(),
      EStepCounts{SourceClaimCounts(inst.model->num_sources), 0.0},
      [&](const ShardRange& range, EStepCounts* acc) {
        EStepShard(model, clamped, range, acc);
      },
      [](EStepCounts* total, const EStepCounts& shard) {
        total->counts.Add(shard.counts);
        total->nll += shard.nll;
      });
  estep.counts.Add(ErmLearner::ObservationCounts(inst.store, train_objects));
  return estep;
}

void EmLearner::Initialize(const std::vector<LabeledExample>& labeled,
                           const std::vector<ObjectId>& train_objects,
                           SlimFastModel* model) const {
  const ParamLayout& layout = model->layout();
  if (layout.num_source_params > 0) {
    double w0 = Logit(kInitAccuracy);
    std::vector<double>& w = *model->mutable_weights();
    for (int32_t i = 0; i < layout.num_source_params; ++i) {
      w[static_cast<size_t>(layout.source_offset + i)] = w0;
    }
  }
  if (!labeled.empty()) {
    // Seed from the available ground truth (accuracy log-loss, matching
    // the M-step); errors here are non-fatal — EM proceeds from the prior.
    auto st = ErmLearner(options_.m_step).FitAccuracyLoss(
        ErmLearner::ObservationCounts(model->instance().store, train_objects),
        model);
    (void)st;
  }
}

Result<EmStats> EmLearner::Fit(const std::vector<ObjectId>& train_objects,
                               SlimFastModel* model, Rng* /*rng*/,
                               Executor* exec, bool warm_start) const {
  SLIMFAST_ASSIGN_OR_RETURN(
      EmStats stats, FitOnce(train_objects, model, /*seed_from_labels=*/true,
                             warm_start, exec));
  // Inversion guard: EM has a symmetric fixed point where most trust
  // scores flip sign (every label is anti-predicted). The ground-truth
  // objects are clamped during the E-step, so a healthy run predicts them
  // correctly; if the converged model gets fewer than half of its own
  // training labels right, restart from the prior initialization without
  // the label-seeded fit and keep the better of the two runs.
  if (!train_objects.empty()) {
    double accuracy = TrainAccuracy(train_objects, *model);
    if (accuracy < 0.5) {
      SlimFastModel retry(model->shared_instance());
      SLIMFAST_ASSIGN_OR_RETURN(
          EmStats retry_stats,
          FitOnce(train_objects, &retry, /*seed_from_labels=*/false,
                  /*warm_start=*/false, exec));
      if (TrainAccuracy(train_objects, retry) > accuracy) {
        model->SetWeights(retry.weights());
        return retry_stats;
      }
    }
  }
  return stats;
}

double EmLearner::TrainAccuracy(const std::vector<ObjectId>& train_objects,
                                const SlimFastModel& model) {
  const CompiledInstance& inst = model.instance();
  const std::vector<ValueId>& truth = inst.store.truth();
  int64_t evaluated = 0;
  int64_t correct = 0;
  for (ObjectId o : train_objects) {
    if (truth[static_cast<size_t>(o)] == kNoValue) continue;
    const int32_t row = inst.RowIndex(o);
    if (row < 0) continue;
    ++evaluated;
    const int64_t cand =
        inst.row_begin[static_cast<size_t>(row)] + model.MapIndex(row);
    if (inst.cand_values[static_cast<size_t>(cand)] ==
        truth[static_cast<size_t>(o)]) {
      ++correct;
    }
  }
  if (evaluated == 0) return 1.0;
  return static_cast<double>(correct) / static_cast<double>(evaluated);
}

Result<EmStats> EmLearner::FitOnce(const std::vector<ObjectId>& train_objects,
                                   SlimFastModel* model,
                                   bool seed_from_labels, bool warm_start,
                                   Executor* exec) const {
  const int32_t num_rows = model->instance().num_rows();
  if (num_rows == 0) {
    return Status::FailedPrecondition("EM requires at least one observation");
  }

  const std::vector<LabeledExample> labeled =
      ErmLearner::ObjectExamples(model->instance(), train_objects);

  // A warm-started relearn refines the model's current weights (the
  // previous fit); clobbering them with the prior would throw away the
  // state the short refinement schedule depends on.
  if (!warm_start) {
    Initialize(seed_from_labels ? labeled : std::vector<LabeledExample>{},
               train_objects, model);
  }

  ErmLearner m_step(options_.m_step);
  ConvergenceTracker tracker(kTolerance, kPatience);

  // A warm-started run refines on a shorter budget; cold runs — including
  // the inversion-guard retry inside a warm relearn — get the full cap.
  const int32_t max_iterations =
      warm_start ? WarmBudget(options_.max_iterations, kMinWarmIterations)
                 : options_.max_iterations;

  EmStats stats;
  for (int32_t iter = 0; iter < max_iterations; ++iter) {
    const EStepCounts estep = EStep(*model, train_objects, exec);
    double expected_nll = estep.nll;
    for (const LabeledExample& ex : labeled) {
      expected_nll += model->ObjectNll(ex.row, ex.target_index);
    }

    // ---- M-step: warm-started accuracy-loss fit on all claim targets. ----
    SLIMFAST_ASSIGN_OR_RETURN(FitStats m_stats,
                              m_step.FitAccuracyLoss(estep.counts, model));
    (void)m_stats;

    stats.iterations = iter + 1;
    stats.final_expected_nll = expected_nll;
    if (tracker.Update(expected_nll)) {
      stats.converged = true;
      break;
    }
  }
  return stats;
}

}  // namespace slimfast

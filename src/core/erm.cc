#include "core/erm.h"

#include <algorithm>
#include <cmath>

#include "simd/simd.h"
#include "opt/adagrad.h"
#include "opt/convergence.h"
#include "opt/proximal.h"
#include "opt/schedule.h"
#include "opt/sparse_grad.h"
#include "util/math.h"

namespace slimfast {

std::vector<LabeledExample> ErmLearner::ObjectExamples(
    const CompiledInstance& instance,
    const std::vector<ObjectId>& train_objects) {
  std::vector<LabeledExample> examples;
  examples.reserve(train_objects.size());
  for (ObjectId o : train_objects) {
    const int32_t row = instance.RowIndex(o);
    if (row < 0) continue;
    const int32_t target = instance.truth_cand[static_cast<size_t>(row)];
    if (target < 0) continue;  // unlabeled, or truth never claimed
    examples.push_back(LabeledExample{row, target, 1.0});
  }
  return examples;
}

std::vector<ObservationExample> ErmLearner::ObservationExamples(
    const ObservationStore& store, const std::vector<ObjectId>& train_objects) {
  std::vector<ObservationExample> examples;
  for (ObjectId o : train_objects) {
    if (!store.HasTruth(o)) continue;
    const ValueId truth = store.truth()[static_cast<size_t>(o)];
    const IndexRange claims = store.ObjectRange(o);
    for (int64_t i = claims.begin; i < claims.end; ++i) {
      examples.push_back(ObservationExample{
          store.sources()[static_cast<size_t>(i)],
          store.values()[static_cast<size_t>(i)] == truth ? 1.0 : 0.0, 1.0});
    }
  }
  return examples;
}

namespace {

/// Adds `mult` × the posterior terms of global candidate `cand` to `grad`.
/// The array bases are read into locals once: the loop interleaves them
/// with writes through `grad`, and locals stay in registers.
inline void ScatterTerms(const CompiledInstance& inst, int64_t cand,
                         double mult, SparseGradAccumulator<ParamId>* grad) {
  const int64_t begin = inst.term_begin[static_cast<size_t>(cand)];
  const int64_t n = inst.term_begin[static_cast<size_t>(cand) + 1] - begin;
  const double* coeff = inst.term_coeff.data() + begin;
  const ParamId* param = inst.term_param.data() + begin;
  for (int64_t t = 0; t < n; ++t) grad->Add(param[t], coeff[t], mult);
}

/// The SGD loop of FitObjectLoss.
Result<FitStats> FitObjectLossSgd(const ErmOptions& options,
                                  const std::vector<LabeledExample>& examples,
                                  SlimFastModel* model, Rng* rng) {
  const CompiledInstance& inst = model->instance();
  std::vector<double>& w = *model->mutable_weights();
  const ParamLayout& layout = model->layout();

  LearningRateSchedule schedule(options.learning_rate, options.decay);
  ConvergenceTracker tracker(options.tolerance, options.patience);
  AdaGrad adagrad(layout.num_params);

  std::vector<size_t> order(examples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  SparseGradAccumulator<ParamId> grad(layout.num_params);
  std::vector<double> probs;

  double total_weight = 0.0;
  for (const LabeledExample& ex : examples) total_weight += ex.weight;

  FitStats stats;
  for (int32_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng->Shuffle(&order);
    double eta = schedule.At(epoch);
    double loss_sum = 0.0;
    for (size_t idx : order) {
      const LabeledExample& ex = examples[static_cast<size_t>(idx)];

      model->Posterior(ex.row, &probs);
      double p_target =
          std::max(probs[static_cast<size_t>(ex.target_index)], 1e-300);
      loss_sum += -ex.weight * std::log(p_target);

      // d(-log p_target)/dw = Σ_d p_d * x_d - x_target.
      grad.Clear();
      const int64_t cand = inst.row_begin[static_cast<size_t>(ex.row)];
      ScatterTerms(inst, cand + ex.target_index, -ex.weight, &grad);
      for (size_t di = 0; di < probs.size(); ++di) {
        ScatterTerms(inst, cand + static_cast<int64_t>(di),
                     ex.weight * probs[di], &grad);
      }
      for (ParamId p : grad.touched()) {
        size_t pi = static_cast<size_t>(p);
        double g = grad.Slot(p) + options.l2 * w[pi];
        double step = eta;
        if (options.use_adagrad) step *= adagrad.Step(p, g);
        w[pi] -= step * g;
        if (options.l1 > 0.0 &&
            (layout.IsFeatureParam(p) || layout.IsCopyParam(p))) {
          w[pi] = SoftThreshold(w[pi], step * options.l1);
        }
        grad.ZeroSlot(p);
      }
    }
    stats.epochs = epoch + 1;
    stats.final_loss = loss_sum / total_weight;
    if (tracker.Update(stats.final_loss)) {
      stats.converged = true;
      break;
    }
  }
  return stats;
}

/// Per-shard accumulator of the batch gradient pass: a sparse gradient
/// (dense slots + touched list) plus the shard's weighted loss. Folded in
/// fixed shard order, so the epoch gradient is bit-identical for any
/// thread count.
struct BatchGradAcc {
  explicit BatchGradAcc(int32_t num_params) : grad(num_params) {}
  SparseGradAccumulator<ParamId> grad;
  double loss = 0.0;
};

/// The full-batch proximal-descent loop.
///
/// The epoch is organized around the rows the examples touch, not the
/// examples themselves. Per-example work factors by row: every example
/// on row r reads the same posterior, and its gradient contribution to
/// candidate di is weight·(p_di − [di == target]). Summing the bracketed
/// terms over a row's examples once, up front, turns the epoch into
///
///   per used row:  scores → softmax → one scatter of
///                  (row_weight·p_di − target_mass_di)·terms(di)
///
/// which visits each row's terms once per epoch instead of once per
/// example (soft EM attaches one example per claim, so this is the
/// difference between one and a per-row claim count of scatter passes),
/// and batches every softmax/log through the SIMD kernels over a packed
/// candidate buffer. Sharding is over used rows; the shard-order fold
/// keeps the epoch gradient bit-identical for any thread count.
Result<FitStats> FitObjectLossBatch(
    const ErmOptions& options, const std::vector<LabeledExample>& examples,
    SlimFastModel* model, Executor* exec) {
  const CompiledInstance& inst = model->instance();
  std::vector<double>& w = *model->mutable_weights();
  const ParamLayout& layout = model->layout();

  LearningRateSchedule schedule(options.learning_rate, options.decay);
  ConvergenceTracker tracker(options.tolerance, options.patience);

  double total_weight = 0.0;
  for (const LabeledExample& ex : examples) total_weight += ex.weight;

  // ---- Fixed per-fit structure (the example set never changes). ----
  // Used rows in first-appearance order; their candidate domains are
  // packed back to back, so a shard of used rows owns one contiguous
  // slice of the packed buffers.
  std::vector<int32_t> slice_of_row(static_cast<size_t>(inst.num_rows()),
                                    -1);
  std::vector<int32_t> used_rows;
  for (const LabeledExample& ex : examples) {
    if (slice_of_row[static_cast<size_t>(ex.row)] < 0) {
      slice_of_row[static_cast<size_t>(ex.row)] =
          static_cast<int32_t>(used_rows.size());
      used_rows.push_back(ex.row);
    }
  }
  const int32_t num_used = static_cast<int32_t>(used_rows.size());
  std::vector<int64_t> packed_begin(static_cast<size_t>(num_used) + 1, 0);
  for (int32_t s = 0; s < num_used; ++s) {
    packed_begin[static_cast<size_t>(s) + 1] =
        packed_begin[static_cast<size_t>(s)] +
        inst.DomainSize(used_rows[static_cast<size_t>(s)]);
  }
  const int64_t num_packed = packed_begin[static_cast<size_t>(num_used)];
  // Grouped example constants: total example weight per used row, and
  // summed target weight per packed candidate.
  std::vector<double> row_weight(static_cast<size_t>(num_used), 0.0);
  std::vector<double> target_mass(static_cast<size_t>(num_packed), 0.0);
  for (const LabeledExample& ex : examples) {
    const int32_t s = slice_of_row[static_cast<size_t>(ex.row)];
    row_weight[static_cast<size_t>(s)] += ex.weight;
    target_mass[static_cast<size_t>(
        packed_begin[static_cast<size_t>(s)] + ex.target_index)] +=
        ex.weight;
  }

  // Per-shard accumulators persist across epochs (cleared in place by each
  // shard body, O(nnz) per clear) so the epoch loop allocates nothing. The
  // shard structure and the shard-order fold below are exactly
  // DeterministicReduce's contract: bit-identical for any thread count.
  const std::vector<ShardRange> shards =
      StaticShards(num_used, FixedShardCount(num_used));
  std::vector<BatchGradAcc> partial(shards.size(),
                                    BatchGradAcc(layout.num_params));
  std::vector<double> probs(static_cast<size_t>(num_packed));
  std::vector<double> logp(static_cast<size_t>(num_packed));
  std::vector<double> grad(static_cast<size_t>(layout.num_params), 0.0);

  FitStats stats;
  for (int32_t epoch = 0; epoch < options.epochs; ++epoch) {
    RunSharded(
        exec, static_cast<int32_t>(shards.size()), [&](int32_t s) {
          const ShardRange& range = shards[static_cast<size_t>(s)];
          BatchGradAcc& acc = partial[static_cast<size_t>(s)];
          acc.grad.Clear();
          acc.loss = 0.0;
          const int64_t pb = packed_begin[static_cast<size_t>(range.begin)];
          const int64_t pe = packed_begin[static_cast<size_t>(range.end)];
          // 1. Scores for every used row of the shard, packed.
          for (int64_t i = range.begin; i < range.end; ++i) {
            model->Scores(used_rows[static_cast<size_t>(i)],
                          probs.data() + packed_begin[static_cast<size_t>(i)]);
          }
          // 2. One softmax pass over the shard's packed rows.
          simd::SoftmaxRows(packed_begin.data() + range.begin,
                            range.end - range.begin, pb, probs.data() + pb);
          // 3. Loss: -Σ target_mass·log(max(p, 1e-300)), with the log
          // batched. Candidates that are never a target carry mass 0 and
          // contribute nothing (the clamp keeps every log finite).
          for (int64_t c = pb; c < pe; ++c) {
            const double p = probs[static_cast<size_t>(c)];
            logp[static_cast<size_t>(c)] = p > 1e-300 ? p : 1e-300;
          }
          simd::BatchLog(logp.data() + pb, logp.data() + pb, pe - pb);
          for (int64_t c = pb; c < pe; ++c) {
            acc.loss += -target_mass[static_cast<size_t>(c)] *
                        logp[static_cast<size_t>(c)];
          }
          // 4. One gradient scatter per candidate.
          for (int64_t i = range.begin; i < range.end; ++i) {
            const int32_t row = used_rows[static_cast<size_t>(i)];
            const int64_t base = packed_begin[static_cast<size_t>(i)];
            const double rw = row_weight[static_cast<size_t>(i)];
            const int64_t cand = inst.row_begin[static_cast<size_t>(row)];
            const int32_t domain_size = inst.DomainSize(row);
            for (int32_t di = 0; di < domain_size; ++di) {
              const size_t k = static_cast<size_t>(base + di);
              ScatterTerms(inst, cand + di, rw * probs[k] - target_mass[k],
                           &acc.grad);
            }
          }
        });
    // Shard-order fold. Visiting only each shard's touched params adds the
    // same per-param contributions, in the same shard order, as a
    // full-vector fold (untouched slots contributed exactly 0.0). Draining
    // zeroes each slot as it is read: a param can appear in touched() twice
    // when its slot cancels to exactly 0.0 mid-shard and is re-touched, and
    // the duplicate must contribute its (now zeroed) slot, not the final
    // value twice.
    std::fill(grad.begin(), grad.end(), 0.0);
    double loss_sum = 0.0;
    for (BatchGradAcc& acc : partial) {
      loss_sum += acc.loss;
      for (ParamId p : acc.grad.touched()) {
        grad[static_cast<size_t>(p)] += acc.grad.Slot(p);
        acc.grad.ZeroSlot(p);
      }
    }
    // Normalize to mean loss so step sizes are dataset-size independent.
    double inv = 1.0 / total_weight;
    double eta = schedule.At(epoch);
    for (size_t pi = 0; pi < w.size(); ++pi) {
      double g = grad[pi] * inv + options.l2 * w[pi];
      w[pi] -= eta * g;
      ParamId p = static_cast<ParamId>(pi);
      if (options.l1 > 0.0 &&
          (layout.IsFeatureParam(p) || layout.IsCopyParam(p))) {
        w[pi] = SoftThreshold(w[pi], eta * options.l1);
      }
    }
    stats.epochs = epoch + 1;
    stats.final_loss = loss_sum * inv;
    if (tracker.Update(stats.final_loss)) {
      stats.converged = true;
      break;
    }
  }
  return stats;
}

/// The accuracy log-loss SGD loop (Definition 7).
Result<FitStats> FitAccuracyLossSgd(
    const ErmOptions& options,
    const std::vector<ObservationExample>& examples, SlimFastModel* model,
    Rng* rng) {
  const CompiledInstance& inst = model->instance();
  const int64_t* sg_begin = inst.sigma_begin.data();
  const double* sg_coeff = inst.sigma_coeff.data();
  const ParamId* sg_param = inst.sigma_param.data();
  std::vector<double>& w = *model->mutable_weights();
  const ParamLayout& layout = model->layout();

  LearningRateSchedule schedule(options.learning_rate, options.decay);
  ConvergenceTracker tracker(options.tolerance, options.patience);
  AdaGrad adagrad(layout.num_params);

  std::vector<size_t> order(examples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  double total_weight = 0.0;
  for (const ObservationExample& ex : examples) total_weight += ex.weight;

  FitStats stats;
  for (int32_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng->Shuffle(&order);
    double eta = schedule.At(epoch);
    double loss_sum = 0.0;
    for (size_t idx : order) {
      const ObservationExample& ex = examples[static_cast<size_t>(idx)];
      const int64_t sb = sg_begin[ex.source];
      const int64_t se = sg_begin[ex.source + 1];
      double sigma = 0.0;
      for (int64_t t = sb; t < se; ++t) {
        sigma += sg_coeff[t] * w[static_cast<size_t>(sg_param[t])];
      }
      double a = Sigmoid(sigma);
      // Binary cross-entropy with (possibly fractional) label; d/dσ = a - y.
      loss_sum += -ex.weight *
                  (ex.label * std::log(std::max(a, 1e-300)) +
                   (1.0 - ex.label) * std::log(std::max(1.0 - a, 1e-300)));
      double g_sigma = ex.weight * (a - ex.label);
      for (int64_t t = sb; t < se; ++t) {
        const ParamId p = sg_param[t];
        const size_t pi = static_cast<size_t>(p);
        double g = g_sigma * sg_coeff[t] + options.l2 * w[pi];
        double step = eta;
        if (options.use_adagrad) step *= adagrad.Step(p, g);
        w[pi] -= step * g;
        if (options.l1 > 0.0 &&
            (layout.IsFeatureParam(p) || layout.IsCopyParam(p))) {
          w[pi] = SoftThreshold(w[pi], step * options.l1);
        }
      }
    }
    stats.epochs = epoch + 1;
    stats.final_loss = loss_sum / total_weight;
    if (tracker.Update(stats.final_loss)) {
      stats.converged = true;
      break;
    }
  }
  return stats;
}

/// Full-batch accuracy log-loss: the example stream is lowered once into
/// SoA arrays and every epoch runs as batched kernel passes — trust
/// scores via TermProducts + FoldRanges over the sigma CSR, then one
/// BatchSigmoid and one BatchSoftplusNeg over all examples at once, a
/// per-source gradient scatter, and a fused AdaGradProx update over the
/// compact set of touched parameters. This is where learn_erm_simd's
/// wide-vs-scalar speedup lives: the SGD loop above interleaves one
/// sigmoid with one parameter update per example, while this loop gives
/// the vectorizer tens of thousands of independent transcendentals per
/// epoch.
///
/// Serial by design, like every M-step: each epoch reads the previous
/// epoch's weights.
///
/// Loss per example uses the algebraic form of binary cross-entropy,
///   -y·log a - (1-y)·log(1-a)  =  log(1+exp(-σ)) + (1-y)·σ,
/// which never needs the 1e-300 clamps of the SGD loop. Like the batch
/// object loss, the gradient is normalized to mean (dataset-size
/// independent steps) and L2/L1 apply once per epoch.
Result<FitStats> FitAccuracyLossBatch(
    const ErmOptions& options,
    const std::vector<ObservationExample>& examples, SlimFastModel* model) {
  std::vector<double>& w = *model->mutable_weights();
  const ParamLayout& layout = model->layout();
  const CompiledInstance& inst = model->instance();
  const int64_t num_sources = inst.model->num_sources;
  const int64_t* sg_begin = inst.sigma_begin.data();
  const double* sg_coeff = inst.sigma_coeff.data();
  const ParamId* sg_param = inst.sigma_param.data();
  const int64_t num_sg = static_cast<int64_t>(inst.sigma_coeff.size());

  // Compact parameter set touched by sigma terms, in first-touch order,
  // plus each term's index into it.
  std::vector<ParamId> params;
  std::vector<int32_t> pidx(static_cast<size_t>(layout.num_params), -1);
  std::vector<int32_t> term_cidx(static_cast<size_t>(num_sg));
  for (int64_t t = 0; t < num_sg; ++t) {
    const ParamId p = sg_param[t];
    if (pidx[static_cast<size_t>(p)] < 0) {
      pidx[static_cast<size_t>(p)] = static_cast<int32_t>(params.size());
      params.push_back(p);
    }
    term_cidx[static_cast<size_t>(t)] = pidx[static_cast<size_t>(p)];
  }
  const int64_t num_cparams = static_cast<int64_t>(params.size());

  // Example stream in SoA form.
  const int64_t n = static_cast<int64_t>(examples.size());
  std::vector<int32_t> ex_src(static_cast<size_t>(n));
  std::vector<double> ex_y(static_cast<size_t>(n)), ex_w(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const ObservationExample& ex = examples[static_cast<size_t>(i)];
    ex_src[static_cast<size_t>(i)] = ex.source;
    ex_y[static_cast<size_t>(i)] = ex.label;
    ex_w[static_cast<size_t>(i)] = ex.weight;
  }
  const double total_weight = simd::Sum(ex_w.data(), n);

  // Compact optimizer state (synced back to w after every epoch).
  std::vector<double> w_c(static_cast<size_t>(num_cparams));
  std::vector<double> accum_c(static_cast<size_t>(num_cparams), 0.0);
  std::vector<double> g_c(static_cast<size_t>(num_cparams));
  std::vector<double> l1_c(static_cast<size_t>(num_cparams), 0.0);
  for (int64_t j = 0; j < num_cparams; ++j) {
    const ParamId p = params[static_cast<size_t>(j)];
    w_c[static_cast<size_t>(j)] = w[static_cast<size_t>(p)];
    if (options.l1 > 0.0 &&
        (layout.IsFeatureParam(p) || layout.IsCopyParam(p))) {
      l1_c[static_cast<size_t>(j)] = options.l1;
    }
  }

  std::vector<double> sg_prod(static_cast<size_t>(num_sg));
  std::vector<double> sigma(static_cast<size_t>(num_sources));
  std::vector<double> sig_ex(static_cast<size_t>(n));
  std::vector<double> a_ex(static_cast<size_t>(n));
  std::vector<double> sp_ex(static_cast<size_t>(n));
  std::vector<double> loss_terms(static_cast<size_t>(n));
  std::vector<double> gsrc(static_cast<size_t>(num_sources));

  LearningRateSchedule schedule(options.learning_rate, options.decay);
  ConvergenceTracker tracker(options.tolerance, options.patience);
  const double inv = 1.0 / total_weight;

  FitStats stats;
  for (int32_t epoch = 0; epoch < options.epochs; ++epoch) {
    // Trust score per source.
    simd::TermProducts(sg_coeff, sg_param, w.data(), sg_prod.data(), num_sg);
    simd::FoldRanges(sg_begin, num_sources, 0, sg_prod.data(), nullptr,
                     sigma.data());
    // Broadcast to the example stream, then batch the transcendentals.
    for (int64_t i = 0; i < n; ++i) {
      sig_ex[static_cast<size_t>(i)] =
          sigma[static_cast<size_t>(ex_src[static_cast<size_t>(i)])];
    }
    simd::BatchSigmoid(sig_ex.data(), a_ex.data(), n);
    simd::BatchSoftplusNeg(sig_ex.data(), sp_ex.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      const size_t si = static_cast<size_t>(i);
      loss_terms[si] = ex_w[si] * (sp_ex[si] + (1.0 - ex_y[si]) * sig_ex[si]);
    }
    const double loss_sum = simd::Sum(loss_terms.data(), n);
    // dL/dσ_s = Σ_i w_i (a_i - y_i), scattered per source then per param.
    std::fill(gsrc.begin(), gsrc.end(), 0.0);
    for (int64_t i = 0; i < n; ++i) {
      const size_t si = static_cast<size_t>(i);
      gsrc[static_cast<size_t>(ex_src[si])] += ex_w[si] * (a_ex[si] - ex_y[si]);
    }
    std::fill(g_c.begin(), g_c.end(), 0.0);
    for (int64_t s = 0; s < num_sources; ++s) {
      const double gs = gsrc[static_cast<size_t>(s)];
      for (int64_t t = sg_begin[s]; t < sg_begin[s + 1]; ++t) {
        g_c[static_cast<size_t>(term_cidx[static_cast<size_t>(t)])] +=
            gs * sg_coeff[t];
      }
    }
    for (int64_t j = 0; j < num_cparams; ++j) {
      const size_t sj = static_cast<size_t>(j);
      g_c[sj] = g_c[sj] * inv + options.l2 * w_c[sj];
    }
    const double eta = schedule.At(epoch);
    if (options.use_adagrad) {
      simd::AdaGradProx(w_c.data(), accum_c.data(), g_c.data(), l1_c.data(),
                        num_cparams, eta, 1e-8);
    } else {
      for (int64_t j = 0; j < num_cparams; ++j) {
        const size_t sj = static_cast<size_t>(j);
        w_c[sj] -= eta * g_c[sj];
        if (l1_c[sj] > 0.0) w_c[sj] = SoftThreshold(w_c[sj], eta * l1_c[sj]);
      }
    }
    for (int64_t j = 0; j < num_cparams; ++j) {
      w[static_cast<size_t>(params[static_cast<size_t>(j)])] =
          w_c[static_cast<size_t>(j)];
    }
    stats.epochs = epoch + 1;
    stats.final_loss = loss_sum * inv;
    if (tracker.Update(stats.final_loss)) {
      stats.converged = true;
      break;
    }
  }
  return stats;
}

}  // namespace

Result<FitStats> ErmLearner::FitObjectLoss(
    const std::vector<LabeledExample>& examples, SlimFastModel* model,
    Rng* rng, Executor* exec) const {
  if (examples.empty()) {
    return Status::FailedPrecondition(
        "ERM requires at least one labeled example");
  }
  if (options_.batch) {
    return FitObjectLossBatch(options_, examples, model, exec);
  }
  return FitObjectLossSgd(options_, examples, model, rng);
}

Result<FitStats> ErmLearner::FitAccuracyLoss(
    const std::vector<ObservationExample>& examples, SlimFastModel* model,
    Rng* rng) const {
  if (examples.empty()) {
    return Status::FailedPrecondition(
        "accuracy-loss ERM requires at least one labeled observation");
  }
  if (options_.batch) {
    return FitAccuracyLossBatch(options_, examples, model);
  }
  return FitAccuracyLossSgd(options_, examples, model, rng);
}

Result<FitStats> ErmLearner::Fit(const std::vector<ObjectId>& train_objects,
                                 SlimFastModel* model, Rng* rng,
                                 Executor* exec) const {
  switch (options_.loss) {
    case ErmLoss::kObjectPosterior: {
      auto examples = ObjectExamples(model->instance(), train_objects);
      return FitObjectLoss(examples, model, rng, exec);
    }
    case ErmLoss::kAccuracyLogLoss: {
      auto examples =
          ObservationExamples(model->instance().store, train_objects);
      return FitAccuracyLoss(examples, model, rng);
    }
  }
  return Status::Internal("unknown ERM loss");
}

}  // namespace slimfast

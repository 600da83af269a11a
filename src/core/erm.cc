#include "core/erm.h"

#include <algorithm>
#include <cmath>

#include "opt/adagrad.h"
#include "opt/convergence.h"
#include "opt/proximal.h"
#include "opt/sparse_grad.h"
#include "simd/simd.h"
#include "util/logging.h"

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
    examples.push_back(LabeledExample{row, target});
  }
  return examples;
}

int32_t WarmBudget(int32_t cold, int32_t floor) {
  const auto scaled =
      static_cast<int32_t>(std::lround(static_cast<double>(cold) * 0.25));
  return std::min(cold, std::max(floor, scaled));
}

void SourceClaimCounts::Add(const SourceClaimCounts& other) {
  for (size_t s = 0; s < mass.size(); ++s) {
    mass[s] += other.mass[s];
    correct[s] += other.correct[s];
  }
}

SourceClaimCounts ErmLearner::ObservationCounts(
    const ObservationStore& store, const std::vector<ObjectId>& train_objects) {
  SourceClaimCounts counts(store.num_sources());
  for (ObjectId o : train_objects) {
    if (!store.HasTruth(o)) continue;
    const ValueId truth = store.truth()[static_cast<size_t>(o)];
    const IndexRange claims = store.ObjectRange(o);
    for (size_t i = static_cast<size_t>(claims.begin);
         i < static_cast<size_t>(claims.end); ++i) {
      const auto s = static_cast<size_t>(store.sources()[i]);
      counts.mass[s] += 1.0;
      if (store.values()[i] == truth) counts.correct[s] += 1.0;
    }
  }
  return counts;
}

namespace {

/// Base step size η₀ of the object loss's epoch schedule
/// η_t = η₀ / √(1 + t), for SGD (scaled per coordinate by AdaGrad) and
/// batch descent alike. The golden bits pin both.
constexpr double kBaseStep = 0.5;

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

  ConvergenceTracker tracker(options.tolerance, options.patience);
  AdaGrad adagrad(layout.num_params);

  std::vector<size_t> order(examples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  SparseGradAccumulator<ParamId> grad(layout.num_params);
  std::vector<double> probs;

  const auto num_examples = static_cast<double>(examples.size());

  FitStats stats;
  for (int32_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng->Shuffle(&order);
    double eta = kBaseStep / std::sqrt(1.0 + epoch);
    double loss_sum = 0.0;
    for (size_t idx : order) {
      const LabeledExample& ex = examples[static_cast<size_t>(idx)];

      model->Posterior(ex.row, &probs);
      double p_target =
          std::max(probs[static_cast<size_t>(ex.target_index)], 1e-300);
      loss_sum += -std::log(p_target);

      // d(-log p_target)/dw = Σ_d p_d * x_d - x_target.
      grad.Clear();
      const int64_t cand = inst.row_begin[static_cast<size_t>(ex.row)];
      ScatterTerms(inst, cand + ex.target_index, -1.0, &grad);
      for (size_t di = 0; di < probs.size(); ++di) {
        ScatterTerms(inst, cand + static_cast<int64_t>(di), probs[di],
                     &grad);
      }
      for (ParamId p : grad.touched()) {
        size_t pi = static_cast<size_t>(p);
        double g = grad.Slot(p) + options.l2 * w[pi];
        double step = eta * adagrad.Step(p, g);
        w[pi] -= step * g;
        if (options.l1 > 0.0 &&
            (layout.IsFeatureParam(p) || layout.IsCopyParam(p))) {
          w[pi] = SoftThreshold(w[pi], step * options.l1);
        }
        grad.ZeroSlot(p);
      }
    }
    stats.epochs = epoch + 1;
    stats.final_loss = loss_sum / num_examples;
    if (tracker.Update(stats.final_loss)) {
      stats.converged = true;
      break;
    }
  }
  return stats;
}

/// Per-shard accumulator of the batch gradient pass: a sparse gradient
/// (dense slots + touched list) plus the shard's loss. Folded in
/// fixed shard order, so the epoch gradient is bit-identical for any
/// thread count.
struct BatchGradAcc {
  explicit BatchGradAcc(int32_t num_params) : grad(num_params) {}
  SparseGradAccumulator<ParamId> grad;
  double loss = 0.0;
};

/// The full-batch proximal-descent loop.
///
/// FitObjectLoss's precondition gives one example per row, so the epoch
/// is one pass over the example rows:
///
///   per example:  scores → softmax → one scatter of
///                 (p_di − [di == target])·terms(di)
///
/// with every softmax/log batched through the SIMD kernels over a packed
/// candidate buffer. Sharding is over examples; the shard-order fold
/// keeps the epoch gradient bit-identical for any thread count.
Result<FitStats> FitObjectLossBatch(
    const ErmOptions& options, const std::vector<LabeledExample>& examples,
    SlimFastModel* model, Executor* exec) {
  const CompiledInstance& inst = model->instance();
  std::vector<double>& w = *model->mutable_weights();
  const ParamLayout& layout = model->layout();

  ConvergenceTracker tracker(options.tolerance, options.patience);

  // ---- Fixed per-fit structure (the example set never changes). ----
  // The examples' candidate domains are packed back to back, so a shard
  // of examples owns one contiguous slice of the packed buffers.
  const int32_t num_examples = static_cast<int32_t>(examples.size());
  std::vector<int64_t> packed_begin(static_cast<size_t>(num_examples) + 1,
                                    0);
  for (int32_t i = 0; i < num_examples; ++i) {
    packed_begin[static_cast<size_t>(i) + 1] =
        packed_begin[static_cast<size_t>(i)] +
        inst.DomainSize(examples[static_cast<size_t>(i)].row);
  }
  const int64_t num_packed = packed_begin[static_cast<size_t>(num_examples)];

  // Per-shard accumulators persist across epochs (cleared in place by each
  // shard body, O(nnz) per clear) so the epoch loop allocates nothing. The
  // shard structure and the shard-order fold below are exactly
  // DeterministicReduce's contract: bit-identical for any thread count.
  const std::vector<ShardRange> shards =
      StaticShards(num_examples, FixedShardCount(num_examples));
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
          // 1. Scores for every example row of the shard, packed.
          for (int64_t i = range.begin; i < range.end; ++i) {
            model->Scores(examples[static_cast<size_t>(i)].row,
                          probs.data() + packed_begin[static_cast<size_t>(i)]);
          }
          // 2. One softmax pass over the shard's packed rows.
          simd::SoftmaxRows(packed_begin.data() + range.begin,
                            range.end - range.begin, pb, probs.data() + pb);
          // 3. Loss: -Σ log(max(p_target, 1e-300)), with the log batched
          // over every packed candidate (the clamp keeps each log finite).
          for (int64_t c = pb; c < pe; ++c) {
            const double p = probs[static_cast<size_t>(c)];
            logp[static_cast<size_t>(c)] = p > 1e-300 ? p : 1e-300;
          }
          simd::BatchLog(logp.data() + pb, logp.data() + pb, pe - pb);
          for (int64_t i = range.begin; i < range.end; ++i) {
            const LabeledExample& ex = examples[static_cast<size_t>(i)];
            acc.loss -= logp[static_cast<size_t>(
                packed_begin[static_cast<size_t>(i)] + ex.target_index)];
          }
          // 4. One gradient scatter per candidate.
          for (int64_t i = range.begin; i < range.end; ++i) {
            const LabeledExample& ex = examples[static_cast<size_t>(i)];
            const int64_t base = packed_begin[static_cast<size_t>(i)];
            const int64_t cand = inst.row_begin[static_cast<size_t>(ex.row)];
            const int32_t domain_size = inst.DomainSize(ex.row);
            for (int32_t di = 0; di < domain_size; ++di) {
              const double target = di == ex.target_index ? 1.0 : 0.0;
              ScatterTerms(inst, cand + di,
                           probs[static_cast<size_t>(base + di)] - target,
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
    double inv = 1.0 / static_cast<double>(examples.size());
    double eta = kBaseStep / std::sqrt(1.0 + epoch);
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

/// The accuracy-loss objective of erm.h over per-source claim counts. The
/// sources with claim mass are compacted, with their sigma terms, into
/// rows of a CSR of their own; each weight's logistic prior is one more
/// row, a pseudo-source with σ = w_j, mass 2c and correct mass c (its loss
/// 2c·softplus(−w_j) + c·w_j is c·[softplus(w_j) + softplus(−w_j)]).
/// An evaluation costs O(their terms): σ = A·w, then per-row
/// transcendentals through the lane-stable kernels, which keeps a fit
/// bitwise the same in SIMD and scalar builds.
class AccuracyLossProblem {
 public:
  AccuracyLossProblem(const ErmOptions& options,
                      const SourceClaimCounts& counts,
                      const SlimFastModel& model, double total_mass)
      : inv_mass_(1.0 / total_mass),
        l2_(static_cast<size_t>(model.layout().num_params), 0.0),
        l1_(l2_.size(), 0.0) {
    const CompiledInstance& inst = model.instance();
    const ParamLayout& layout = model.layout();
    std::vector<double> touching(l2_.size(), 0.0);  // m_j·M
    auto end_row = [&](double mass, double correct) {
      mass_.push_back(mass);
      correct_.push_back(correct);
      begin_.push_back(static_cast<int64_t>(coeff_.size()));
    };
    begin_.push_back(0);
    for (size_t s = 0; s < counts.mass.size(); ++s) {
      if (!(counts.mass[s] > 0.0)) continue;
      for (int64_t t = inst.sigma_begin[s]; t < inst.sigma_begin[s + 1];
           ++t) {
        const ParamId p = inst.sigma_param[static_cast<size_t>(t)];
        if (touching[static_cast<size_t>(p)] == 0.0) params_.push_back(p);
        touching[static_cast<size_t>(p)] += counts.mass[s];
        coeff_.push_back(inst.sigma_coeff[static_cast<size_t>(t)]);
        param_.push_back(p);
      }
      end_row(counts.mass[s], counts.correct[s]);
    }
    std::sort(params_.begin(), params_.end());
    for (ParamId p : params_) {
      const size_t j = static_cast<size_t>(p);
      l2_[j] = options.l2 * touching[j] * inv_mass_;
      const bool feature = !layout.IsSourceParam(p);
      l1_[j] = feature ? options.l1 * touching[j] * inv_mass_ : 0.0;
      const double prior = feature ? 0.03 : 1.0;  // c_j of erm.h
      coeff_.push_back(1.0);  // the prior's row: σ = w_j
      param_.push_back(p);
      end_row(2.0 * prior, prior);
    }
    sigma_.resize(mass_.size());
    aux_.resize(mass_.size());
    prod_.resize(coeff_.size());
  }

  /// The parameters the objective depends on, ascending.
  const std::vector<ParamId>& params() const { return params_; }
  double l1(ParamId p) const { return l1_[static_cast<size_t>(p)]; }

  /// Smooth part of the objective (loss, priors, L2) at `w`; leaves σ(w)
  /// in sigma_.
  double Smooth(const std::vector<double>& w) {
    const int64_t n = static_cast<int64_t>(mass_.size());
    simd::TermProducts(coeff_.data(), param_.data(), w.data(), prod_.data(),
                       static_cast<int64_t>(prod_.size()));
    simd::FoldRanges(begin_.data(), n, 0, prod_.data(), nullptr,
                     sigma_.data());
    simd::BatchSoftplusNeg(sigma_.data(), aux_.data(), n);
    double loss = 0.0;
    for (size_t i = 0; i < mass_.size(); ++i) {
      loss += mass_[i] * aux_[i] + (mass_[i] - correct_[i]) * sigma_[i];
    }
    double penalty = 0.0;
    for (ParamId p : params_) {
      const size_t j = static_cast<size_t>(p);
      penalty += l2_[j] * w[j] * w[j];
    }
    return loss * inv_mass_ + 0.5 * penalty;
  }

  /// L1 penalty at `w`.
  double L1Penalty(const std::vector<double>& w) const {
    double penalty = 0.0;
    for (ParamId p : params_) {
      const size_t j = static_cast<size_t>(p);
      penalty += l1_[j] * std::fabs(w[j]);
    }
    return penalty;
  }

  /// Gradient of the smooth part at `w` into `grad` (entries of params()
  /// only); returns the smooth value.
  double SmoothGradient(const std::vector<double>& w,
                        std::vector<double>* grad) {
    const double value = Smooth(w);
    simd::BatchSigmoid(sigma_.data(), aux_.data(),
                       static_cast<int64_t>(mass_.size()));
    for (ParamId p : params_) {
      const size_t j = static_cast<size_t>(p);
      (*grad)[j] = l2_[j] * w[j];
    }
    const double* coeff = coeff_.data();
    const ParamId* param = param_.data();
    for (size_t i = 0; i < mass_.size(); ++i) {
      const double d = (mass_[i] * aux_[i] - correct_[i]) * inv_mass_;
      for (int64_t t = begin_[i]; t < begin_[i + 1]; ++t) {
        (*grad)[static_cast<size_t>(param[t])] += coeff[t] * d;
      }
    }
    return value;
  }

  /// Largest row sum of (1/4M)·|A|ᵀW|A| + diag(l2 weights): an upper
  /// bound on the curvature of the smooth part.
  double CurvatureBound() const {
    const double* coeff = coeff_.data();
    const ParamId* param = param_.data();
    std::vector<double> row(l2_);
    for (size_t i = 0; i < mass_.size(); ++i) {
      double abs_sum = 0.0;
      for (int64_t t = begin_[i]; t < begin_[i + 1]; ++t) {
        abs_sum += std::fabs(coeff[t]);
      }
      for (int64_t t = begin_[i]; t < begin_[i + 1]; ++t) {
        row[static_cast<size_t>(param[t])] +=
            0.25 * mass_[i] * inv_mass_ * std::fabs(coeff[t]) * abs_sum;
      }
    }
    return row.empty() ? 0.0 : *std::max_element(row.begin(), row.end());
  }

 private:
  const double inv_mass_;
  // One row per source with claim mass, then one per prior: counts and
  // sigma terms, CSR.
  std::vector<double> mass_;
  std::vector<double> correct_;
  std::vector<int64_t> begin_;
  std::vector<double> coeff_;
  std::vector<ParamId> param_;
  std::vector<ParamId> params_;
  std::vector<double> l2_;  // per parameter: l2·m_j
  std::vector<double> l1_;  // per parameter: l1·m_j on features
  std::vector<double> sigma_;
  std::vector<double> aux_;
  std::vector<double> prod_;
};

}  // namespace

Result<FitStats> ErmLearner::FitObjectLoss(
    const std::vector<LabeledExample>& examples, SlimFastModel* model,
    Rng* rng, Executor* exec) const {
  if (examples.empty()) {
    return Status::FailedPrecondition(
        "ERM requires at least one labeled example");
  }
  std::vector<uint8_t> seen(static_cast<size_t>(model->instance().num_rows()),
                            0);
  for (const LabeledExample& ex : examples) {
    SLIMFAST_DCHECK(seen[static_cast<size_t>(ex.row)] == 0,
                    "FitObjectLoss takes one example per row");
    seen[static_cast<size_t>(ex.row)] = 1;
  }
  if (options_.batch) {
    return FitObjectLossBatch(options_, examples, model, exec);
  }
  return FitObjectLossSgd(options_, examples, model, rng);
}

Result<FitStats> ErmLearner::FitAccuracyLoss(const SourceClaimCounts& counts,
                                              SlimFastModel* model) const {
  const auto num_sources =
      static_cast<size_t>(model->instance().store.num_sources());
  if (counts.mass.size() != num_sources ||
      counts.correct.size() != num_sources) {
    return Status::InvalidArgument(
        "accuracy-loss counts do not match the model's source count");
  }
  double total_mass = 0.0;
  for (double m : counts.mass) total_mass += m;
  if (!(total_mass > 0.0)) {
    return Status::FailedPrecondition(
        "accuracy-loss ERM requires at least one labeled observation");
  }
  AccuracyLossProblem problem(options_, counts, *model, total_mass);
  const std::vector<ParamId>& params = problem.params();
  std::vector<double>& x = *model->mutable_weights();

  // Accelerated proximal gradient: Beck & Teboulle's FISTA with
  // backtracking on the step 1/L. L only grows; it starts well below the
  // curvature bound, which saturated sigmoids leave loose.
  constexpr int32_t kMaxDoublings = 64;
  double lipschitz = std::max(problem.CurvatureBound() / 64.0, 1e-12);
  double momentum = 1.0;
  double objective = problem.Smooth(x) + problem.L1Penalty(x);
  std::vector<double> y = x;
  std::vector<double> z = x;
  std::vector<double> grad(x.size(), 0.0);
  ConvergenceTracker tracker(options_.tolerance, options_.patience);
  FitStats stats;
  for (int32_t iter = 0; iter < options_.epochs; ++iter) {
    stats.epochs = iter + 1;
    const double smooth_y = problem.SmoothGradient(y, &grad);
    double smooth_z = 0.0;
    for (int32_t doubling = 0; doubling < kMaxDoublings; ++doubling) {
      double linear = 0.0;
      double quadratic = 0.0;
      for (ParamId p : params) {
        const size_t j = static_cast<size_t>(p);
        z[j] = SoftThreshold(y[j] - grad[j] / lipschitz,
                             problem.l1(p) / lipschitz);
        const double d = z[j] - y[j];
        linear += grad[j] * d;
        quadratic += d * d;
      }
      smooth_z = problem.Smooth(z);
      // The slack absorbs rounding once steps reach machine precision.
      if (smooth_z <= smooth_y + linear + 0.5 * lipschitz * quadratic +
                          1e-15 * std::fabs(smooth_y)) {
        break;
      }
      lipschitz *= 2.0;
    }
    const double objective_z = smooth_z + problem.L1Penalty(z);
    if (objective_z > objective && momentum > 1.0) {
      // Monotone restart: drop the momentum; the next iteration is a plain
      // proximal-gradient step from x, which cannot increase F.
      momentum = 1.0;
      y = x;
      continue;
    }
    const double next =
        0.5 * (1.0 + std::sqrt(1.0 + 4.0 * momentum * momentum));
    const double beta = (momentum - 1.0) / next;
    momentum = next;
    for (ParamId p : params) {
      const size_t j = static_cast<size_t>(p);
      y[j] = z[j] + beta * (z[j] - x[j]);
      x[j] = z[j];
    }
    objective = objective_z;
    if (tracker.Update(objective)) {
      stats.converged = true;
      break;
    }
  }
  stats.final_loss = objective;
  return stats;
}

Result<FitStats> ErmLearner::Fit(const std::vector<ObjectId>& train_objects,
                                 SlimFastModel* model, Rng* rng,
                                 Executor* exec) const {
  switch (options_.loss) {
    case ErmLoss::kObjectPosterior: {
      auto examples = ObjectExamples(model->instance(), train_objects);
      return FitObjectLoss(examples, model, rng, exec);
    }
    case ErmLoss::kAccuracyLogLoss:
      return FitAccuracyLoss(
          ObservationCounts(model->instance().store, train_objects), model);
  }
  return Status::Internal("unknown ERM loss");
}

}  // namespace slimfast

#ifndef SLIMFAST_SYNTH_SYNTHETIC_H_
#define SLIMFAST_SYNTH_SYNTHETIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "exec/parallel.h"
#include "util/result.h"

namespace slimfast {

/// Configuration of the synthetic fusion-instance generator.
///
/// The generator realizes the data model of Sec. 2 with controllable
/// instance statistics — exactly the knobs the paper's analysis identifies
/// as driving the EM/ERM tradeoff (density, average accuracy, ground
/// truth) plus the structures the real datasets exhibit (predictive
/// domain features, correlated "copying" sources, systematic stale-value
/// errors).
struct SyntheticConfig {
  std::string name = "synthetic";
  int32_t num_sources = 1000;
  int32_t num_objects = 1000;
  /// Global value-dictionary size (2 = binary objects).
  int32_t num_values = 2;

  /// Observation sampling.
  enum class Sampling {
    /// Each (source, object) pair is observed independently w.p. density —
    /// the uniform-selectivity model of Sec. 4.2.2.
    kBernoulli,
    /// Exactly round(density * |S|) distinct sources observe each object
    /// (e.g. 20 crowd workers per task).
    kFixedPerObject,
  };
  Sampling sampling = Sampling::kBernoulli;
  /// Probability p that a source observes an object.
  double density = 0.01;

  /// Source accuracies: A_s = clamp(mean + U(-spread, spread)
  ///   + Σ_{active features} effect_k + N(0, noise), min, max).
  double mean_accuracy = 0.7;
  double accuracy_spread = 0.1;
  double accuracy_noise = 0.0;
  double min_accuracy = 0.05;
  double max_accuracy = 0.95;

  /// Domain-specific features: `num_feature_groups` categorical groups,
  /// each with `values_per_group` boolean indicator features; every source
  /// activates exactly one feature per group. Each feature carries a fixed
  /// accuracy effect drawn from U(-feature_effect, feature_effect), so
  /// features are genuinely predictive when feature_effect > 0.
  int32_t num_feature_groups = 0;
  int32_t values_per_group = 10;
  double feature_effect = 0.0;
  /// Optional per-group overrides. When `group_sizes` is non-empty it
  /// replaces (num_feature_groups, values_per_group); `group_effects`, if
  /// also non-empty, must have the same length and replaces feature_effect
  /// per group — this is how the simulators make e.g. the Crowd "channel"
  /// group strongly predictive while "city" is nearly uninformative.
  std::vector<int32_t> group_sizes;
  std::vector<double> group_effects;

  /// Error model: a wrong claim picks the object's designated "stale"
  /// value w.p. stale_value_prob (systematic correlated error, e.g. an
  /// outdated stock quote every bad source echoes), otherwise a uniform
  /// wrong value.
  double stale_value_prob = 0.0;

  /// Copying clusters (Appendix D): the first
  /// num_copy_clusters * copy_cluster_size sources form clusters whose
  /// members repeat their leader's opinion w.p. copy_fidelity, mistakes
  /// included.
  int32_t num_copy_clusters = 0;
  int32_t copy_cluster_size = 3;
  double copy_fidelity = 0.9;
  /// Probability that a copier observes an object *given its leader does*
  /// (syndication: the copied report covers the same events). Copiers also
  /// observe independently at the base density. 0 keeps selection
  /// independent.
  double copy_coobserve = 0.0;
  /// If >= 0, cluster members draw their base accuracy around this mean
  /// instead of mean_accuracy — modeling syndication networks that echo
  /// unreliable feeds while independent sources stay trustworthy.
  double copy_cluster_accuracy = -1.0;

  /// Per-object difficulty: each object shifts every source's accuracy on
  /// it by U(-object_difficulty, +object_difficulty). Captures the "easy
  /// objects, everyone agrees / hard objects, everyone guesses" structure
  /// of real data, which raises cross-source agreement without raising
  /// mean accuracy.
  double object_difficulty = 0.0;

  /// Enforce single-truth semantics: if an observed object's true value is
  /// claimed by nobody, one random claim is flipped to the truth.
  bool ensure_truth_claimed = true;
};

/// A generated instance with its hidden parameters, for evaluation against
/// the generator's ground truth.
struct SyntheticDataset {
  Dataset dataset;
  /// The accuracy each source was generated with (A*_s).
  std::vector<double> true_accuracies;
  /// Copy cluster id per source; -1 for independent sources.
  std::vector<int32_t> copy_cluster_of;
};

/// Generates a fusion instance; deterministic given (config, seed).
Result<SyntheticDataset> GenerateSynthetic(const SyntheticConfig& config,
                                           uint64_t seed);

/// Generates `num_replicas` independent instances of `config`, replica i
/// seeded with StreamSeed(base_seed, i) (exec/sharded_rng.h) — so replica i
/// is exactly GenerateSynthetic(config, StreamSeed(base_seed, i)) and the
/// batch is deterministic for every thread count. Replicas run in parallel
/// across `exec` (null = serial). On any per-replica failure the
/// lowest-indexed error is returned.
Result<std::vector<SyntheticDataset>> GenerateSyntheticReplicas(
    const SyntheticConfig& config, uint64_t base_seed, int32_t num_replicas,
    Executor* exec = nullptr);

}  // namespace slimfast

#endif  // SLIMFAST_SYNTH_SYNTHETIC_H_

#ifndef SLIMFAST_TESTS_TEST_UTIL_H_
#define SLIMFAST_TESTS_TEST_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/compiled_instance.h"
#include "core/slimfast.h"
#include "data/dataset.h"
#include "data/fusion.h"
#include "data/split.h"
#include "eval/metrics.h"
#include "util/random.h"

namespace slimfast {
namespace testutil {

/// The paper's Figure 1 instance: 3 articles, 2 gene-disease objects.
/// Object 0 truth = 0 (not associated), object 1 truth = 1.
inline Dataset MakeFigure1Dataset() {
  DatasetBuilder builder("figure1", 3, 2, 2);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 1, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 2, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 0, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 2, 1));
  SLIMFAST_CHECK_OK(builder.SetTruth(0, 0));
  SLIMFAST_CHECK_OK(builder.SetTruth(1, 1));
  return std::move(builder).Build().ValueOrDie();
}

/// Golden truth assignment of the Figure 1 instance, indexed by object.
inline std::vector<ValueId> Figure1TruthValues() { return {0, 1}; }

/// A planted binary instance: each source s has accuracy `accuracies[s]`,
/// every source observes every object with probability `density`, truth is
/// always value 0, full ground truth attached.
inline Dataset MakePlantedDataset(const std::vector<double>& accuracies,
                                  int32_t num_objects, double density,
                                  uint64_t seed,
                                  int32_t num_values = 2) {
  Rng rng(seed);
  DatasetBuilder builder("planted", static_cast<int32_t>(accuracies.size()),
                         num_objects, num_values);
  for (ObjectId o = 0; o < num_objects; ++o) {
    for (SourceId s = 0; s < static_cast<int32_t>(accuracies.size()); ++s) {
      if (!rng.Bernoulli(density)) continue;
      ValueId v = 0;
      if (!rng.Bernoulli(accuracies[static_cast<size_t>(s)])) {
        v = 1 + static_cast<ValueId>(rng.UniformInt(num_values - 1));
      }
      SLIMFAST_CHECK_OK(builder.AddObservation(o, s, v));
    }
    SLIMFAST_CHECK_OK(builder.SetTruth(o, 0));
  }
  return std::move(builder).Build().ValueOrDie();
}

/// A randomized small universe for property-based invariant checking
/// (tests/property_test.cc): dimensions, sparsity, domain sizes, and the
/// labeled fraction all vary with the seed, and the generator
/// deliberately produces the degenerate shapes the compiler and learners
/// must survive — objects with zero claims (skipped outright or missed
/// by every source), single-source instances (one-shard learning), and
/// universes whose truth labels sit on claimless objects. Object 0
/// always carries a truth label and one claim from source 0, so every
/// universe admits a non-empty training split and satisfies the
/// learners' at-least-one-observation precondition.
inline Dataset RandomUniverse(uint64_t seed) {
  Rng rng(seed);
  const int32_t num_sources = 1 + static_cast<int32_t>(rng.UniformInt(10));
  const int32_t num_objects = 1 + static_cast<int32_t>(rng.UniformInt(40));
  const int32_t num_values = 2 + static_cast<int32_t>(rng.UniformInt(5));
  const double density = rng.Uniform(0.05, 0.9);
  const double truth_fraction = rng.Uniform(0.2, 1.0);
  const double skip_object = 0.15;  // 0-claim objects, on purpose
  std::vector<double> accuracy(static_cast<size_t>(num_sources));
  for (double& a : accuracy) a = rng.Uniform(0.5, 0.95);
  DatasetBuilder builder("universe" + std::to_string(seed), num_sources,
                         num_objects, num_values);
  for (ObjectId o = 0; o < num_objects; ++o) {
    const ValueId truth = static_cast<ValueId>(rng.UniformInt(num_values));
    const bool claimless = o != 0 && rng.Bernoulli(skip_object);
    if (!claimless) {
      for (SourceId s = 0; s < num_sources; ++s) {
        if (!(o == 0 && s == 0) && !rng.Bernoulli(density)) continue;
        ValueId v = truth;
        if (!rng.Bernoulli(accuracy[static_cast<size_t>(s)])) {
          v = static_cast<ValueId>(rng.UniformInt(num_values));
        }
        SLIMFAST_CHECK_OK(builder.AddObservation(o, s, v));
      }
    }
    if (o == 0 || rng.Bernoulli(truth_fraction)) {
      SLIMFAST_CHECK_OK(builder.SetTruth(o, truth));
    }
  }
  return std::move(builder).Build().ValueOrDie();
}

/// A split revealing the first `k` labeled objects as training data
/// (deterministic, for tests that need a specific split).
inline TrainTestSplit MakePrefixSplit(const Dataset& dataset, int32_t k) {
  TrainTestSplit split;
  split.is_train.assign(static_cast<size_t>(dataset.num_objects()), 0);
  int32_t taken = 0;
  for (ObjectId o : dataset.ObjectsWithTruth()) {
    if (taken < k) {
      split.train_objects.push_back(o);
      split.is_train[static_cast<size_t>(o)] = 1;
      ++taken;
    } else {
      split.test_objects.push_back(o);
    }
  }
  return split;
}

/// One compiled (parameter, coefficient) term, for readable structural
/// assertions against the CompiledInstance CSR arrays.
using Term = std::pair<ParamId, double>;

/// Candidate range [begin, end) of `object`'s row; an empty range (and a
/// test failure) when the object has no compiled row.
inline std::pair<int64_t, int64_t> CandidateRange(
    const CompiledInstance& instance, ObjectId object) {
  const int32_t row = instance.RowIndex(object);
  if (row < 0) {
    ADD_FAILURE() << "object " << object << " has no compiled row";
    return {0, 0};
  }
  return {instance.row_begin[static_cast<size_t>(row)],
          instance.row_begin[static_cast<size_t>(row) + 1]};
}

/// Candidate domain of `object`'s row.
inline std::vector<ValueId> RowDomain(const CompiledInstance& instance,
                                      ObjectId object) {
  const auto [begin, end] = CandidateRange(instance, object);
  return std::vector<ValueId>(instance.cand_values.begin() + begin,
                              instance.cand_values.begin() + end);
}

/// Constant score offsets of `object`'s candidates.
inline std::vector<double> RowOffsets(const CompiledInstance& instance,
                                      ObjectId object) {
  const auto [begin, end] = CandidateRange(instance, object);
  return std::vector<double>(instance.cand_offsets.begin() + begin,
                             instance.cand_offsets.begin() + end);
}

/// Posterior terms of candidate `di` of `object`'s row.
inline std::vector<Term> CandidateTerms(const CompiledInstance& instance,
                                        ObjectId object, int32_t di) {
  const auto [begin, end] = CandidateRange(instance, object);
  std::vector<Term> terms;
  if (di < 0 || begin + di >= end) {
    ADD_FAILURE() << "candidate " << di << " out of range";
    return terms;
  }
  const size_t cand = static_cast<size_t>(begin + di);
  for (int64_t t = instance.term_begin[cand];
       t < instance.term_begin[cand + 1]; ++t) {
    terms.emplace_back(instance.term_param[static_cast<size_t>(t)],
                       instance.term_coeff[static_cast<size_t>(t)]);
  }
  return terms;
}

/// Trust-score terms of `source`.
inline std::vector<Term> SigmaTerms(const CompiledInstance& instance,
                                    SourceId source) {
  std::vector<Term> terms;
  for (int64_t t = instance.sigma_begin[static_cast<size_t>(source)];
       t < instance.sigma_begin[static_cast<size_t>(source) + 1]; ++t) {
    terms.emplace_back(instance.sigma_param[static_cast<size_t>(t)],
                       instance.sigma_coeff[static_cast<size_t>(t)]);
  }
  return terms;
}

/// A named SLiMFast preset plus the factory that builds it, so tests can
/// iterate over all five method variants of core/slimfast.h.
struct SlimFastPreset {
  std::string name;
  /// Builds the preset on the given base options (the factory overrides
  /// the fields that define the variant).
  std::function<std::unique_ptr<SlimFast>(SlimFastOptions)> make_with;

  /// Builds the preset on default options.
  std::unique_ptr<SlimFast> make() const { return make_with({}); }
};

/// All five preset factories evaluated in the paper, in a stable order.
inline std::vector<SlimFastPreset> AllSlimFastPresets() {
  return {
      {"SLiMFast", [](SlimFastOptions o) { return MakeSlimFast(o); }},
      {"SLiMFast-ERM", [](SlimFastOptions o) { return MakeSlimFastErm(o); }},
      {"SLiMFast-EM", [](SlimFastOptions o) { return MakeSlimFastEm(o); }},
      {"Sources-ERM", [](SlimFastOptions o) { return MakeSourcesErm(o); }},
      {"Sources-EM", [](SlimFastOptions o) { return MakeSourcesEm(o); }},
  };
}

/// Asserts that two fusion outputs describe the same result: identical
/// predictions, source-accuracy estimates, method name, and detail string.
/// Wall-clock fields are deliberately ignored — they are the one
/// legitimately nondeterministic part of a run.
inline void ExpectSameFusionOutput(const FusionOutput& a,
                                   const FusionOutput& b) {
  EXPECT_EQ(a.method_name, b.method_name);
  EXPECT_EQ(a.detail, b.detail);
  EXPECT_EQ(a.predicted_values, b.predicted_values);
  EXPECT_EQ(a.source_accuracies, b.source_accuracies);
}

/// Runs `method` on `dataset` and returns its held-out accuracy.
inline double RunHeldOutAccuracy(FusionMethod* method, const Dataset& dataset,
                                 const TrainTestSplit& split, uint64_t seed) {
  auto output = method->Run(dataset, split, seed).ValueOrDie();
  return TestAccuracy(dataset, output.predicted_values, split).ValueOrDie();
}

/// Observation-weighted error of estimated source accuracies against the
/// planted accuracies used to generate the dataset.
inline double PlantedSourceAccuracyError(
    const Dataset& dataset, const std::vector<double>& planted,
    const FusionOutput& output) {
  return WeightedSourceAccuracyErrorAgainst(dataset, output.source_accuracies,
                                            planted, {})
      .ValueOrDie();
}

}  // namespace testutil
}  // namespace slimfast

#endif  // SLIMFAST_TESTS_TEST_UTIL_H_

// CompiledInstance and its cache: the CSR arrays must encode exactly the
// log-linear structure of Eq. 4 (checked here against an independent
// per-object derivation from the dataset), the row-at-a-time model scores
// must match the batched kernel pipeline bit for bit, and the cache must
// key on dataset content + ModelConfig.

#include "core/compiled_instance.h"

#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "core/model.h"
#include "simd/simd.h"
#include "test_util.h"

namespace slimfast {
namespace {

using testutil::MakeFigure1Dataset;
using testutil::MakePlantedDataset;
using testutil::Term;

// A 3-valued planted instance with features on two of its four sources.
Dataset MakeFeaturedPlantedDataset() {
  const std::vector<double> planted = {0.9, 0.7, 0.6, 0.8};
  Dataset base = MakePlantedDataset(planted, 50, 0.5, 17, 3);
  DatasetBuilder builder("featured", base.num_sources(), base.num_objects(),
                         base.num_values());
  FeatureSpace* fs = builder.mutable_features();
  const FeatureId k0 = fs->RegisterFeature("k0");
  const FeatureId k1 = fs->RegisterFeature("k1");
  SLIMFAST_CHECK_OK(fs->SetFeature(0, k0));
  SLIMFAST_CHECK_OK(fs->SetFeature(0, k1));
  SLIMFAST_CHECK_OK(fs->SetFeature(2, k1));
  for (ObjectId o = 0; o < base.num_objects(); ++o) {
    for (const SourceClaim& claim : base.ClaimsOnObject(o)) {
      SLIMFAST_CHECK_OK(builder.AddObservation(o, claim.source, claim.value));
    }
    if (o % 3 != 0) SLIMFAST_CHECK_OK(builder.SetTruth(o, base.Truth(o)));
  }
  return std::move(builder).Build().ValueOrDie();
}

TEST(CompiledInstanceTest, CsrEncodesEquationFourExactly) {
  Dataset dataset = MakeFeaturedPlantedDataset();
  ModelConfig config;
  auto instance = CompileInstance(dataset, config).ValueOrDie();
  const ParamLayout& layout = instance->model->layout;

  // Sigma CSR: σ_s = w_s + Σ_k w_k f_{s,k}, in parameter order.
  ASSERT_EQ(instance->sigma_begin.size(),
            static_cast<size_t>(dataset.num_sources()) + 1);
  std::vector<std::vector<Term>> sigma(
      static_cast<size_t>(dataset.num_sources()));
  for (SourceId s = 0; s < dataset.num_sources(); ++s) {
    auto& expected = sigma[static_cast<size_t>(s)];
    expected.emplace_back(layout.source_offset + s, 1.0);
    for (FeatureId k : dataset.features().FeaturesOf(s)) {
      expected.emplace_back(layout.feature_offset + k, 1.0);
    }
    EXPECT_EQ(testutil::SigmaTerms(*instance, s), expected) << "source " << s;
  }

  // Rows: the observed objects, ascending.
  std::vector<ObjectId> observed;
  for (ObjectId o = 0; o < dataset.num_objects(); ++o) {
    if (!dataset.ClaimsOnObject(o).empty()) observed.push_back(o);
  }
  ASSERT_EQ(instance->row_object, observed);
  ASSERT_EQ(instance->num_rows(), static_cast<int32_t>(observed.size()));

  for (int32_t r = 0; r < instance->num_rows(); ++r) {
    const ObjectId o = observed[static_cast<size_t>(r)];
    EXPECT_EQ(instance->RowIndex(o), r);
    const std::vector<ValueId>& domain = dataset.DomainOf(o);
    ASSERT_EQ(testutil::RowDomain(*instance, o), domain) << "object " << o;
    const auto& claims = dataset.ClaimsOnObject(o);
    const double claim_offset =
        domain.size() > 2 ? std::log(static_cast<double>(domain.size()) - 1.0)
                          : 0.0;
    for (size_t di = 0; di < domain.size(); ++di) {
      // Terms: the merged sigma expressions of every source claiming the
      // candidate; offset: one multiclass correction per such claim.
      std::map<ParamId, double> merged;
      double offset = 0.0;
      for (const SourceClaim& claim : claims) {
        if (claim.value != domain[di]) continue;
        for (const Term& t : sigma[static_cast<size_t>(claim.source)]) {
          merged[t.first] += t.second;
        }
        offset += claim_offset;
      }
      const std::vector<Term> expected(merged.begin(), merged.end());
      EXPECT_EQ(testutil::CandidateTerms(*instance, o,
                                         static_cast<int32_t>(di)),
                expected)
          << "object " << o << " candidate " << di;
      EXPECT_EQ(testutil::RowOffsets(*instance, o)[di], offset)
          << "object " << o << " candidate " << di;
    }

    // Claims mirror ClaimsOnObject with precomputed domain indexes, and
    // truth targets match the domain index of the dataset truth.
    const int64_t cb = instance->claim_begin[static_cast<size_t>(r)];
    ASSERT_EQ(instance->claim_begin[static_cast<size_t>(r) + 1] - cb,
              static_cast<int64_t>(claims.size()));
    for (size_t k = 0; k < claims.size(); ++k) {
      const size_t i = static_cast<size_t>(cb) + k;
      EXPECT_EQ(instance->claim_sources[i], claims[k].source);
      EXPECT_EQ(instance->claim_cand[i],
                instance->DomainIndex(r, claims[k].value));
      EXPECT_GE(instance->claim_cand[i], 0);
    }
    const int32_t expected_truth =
        dataset.HasTruth(o) ? instance->DomainIndex(r, dataset.Truth(o)) : -1;
    EXPECT_EQ(instance->truth_cand[static_cast<size_t>(r)], expected_truth);
  }
}

TEST(CompiledInstanceTest, ModelScoresMatchBatchedKernelsBitwise) {
  const std::vector<double> planted = {0.85, 0.7, 0.65};
  Dataset dataset = MakePlantedDataset(planted, 30, 0.6, 5, 3);
  ModelConfig config;
  auto instance = CompileInstance(dataset, config).ValueOrDie();
  SlimFastModel model(instance);
  // Non-trivial weights so the softmax has something to chew on.
  std::vector<double> w = model.weights();
  for (size_t i = 0; i < w.size(); ++i) {
    w[i] = 0.01 * static_cast<double>(i % 7) - 0.02;
  }
  model.SetWeights(w);

  // The E-step's whole-instance pipeline: TermProducts → FoldRanges →
  // SoftmaxRows over the CSR arrays.
  const int64_t num_terms = static_cast<int64_t>(instance->term_coeff.size());
  std::vector<double> prod(static_cast<size_t>(num_terms));
  std::vector<double> batched(static_cast<size_t>(instance->num_candidates()));
  simd::TermProducts(instance->term_coeff.data(), instance->term_param.data(),
                     model.weights().data(), prod.data(), num_terms);
  simd::FoldRanges(instance->term_begin.data(), instance->num_candidates(), 0,
                   prod.data(), instance->cand_offsets.data(), batched.data());
  simd::SoftmaxRows(instance->row_begin.data(), instance->num_rows(), 0,
                    batched.data());

  std::vector<double> probs;
  for (int32_t r = 0; r < instance->num_rows(); ++r) {
    model.Posterior(r, &probs);
    const int64_t begin = instance->row_begin[static_cast<size_t>(r)];
    ASSERT_EQ(static_cast<int32_t>(probs.size()), instance->DomainSize(r));
    for (size_t di = 0; di < probs.size(); ++di) {
      EXPECT_EQ(probs[di], batched[static_cast<size_t>(begin) + di])
          << "row " << r << " candidate " << di;
    }
  }
}

TEST(CompiledInstanceTest, FingerprintTracksDatasetContent) {
  Dataset a = MakeFigure1Dataset();
  Dataset b = MakeFigure1Dataset();
  EXPECT_EQ(DatasetCompilationFingerprint(a),
            DatasetCompilationFingerprint(b));

  // One extra observation changes the fingerprint.
  DatasetBuilder builder("figure1", 3, 2, 2);
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 0, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 1, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(0, 2, 0));
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 0, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 2, 1));
  SLIMFAST_CHECK_OK(builder.AddObservation(1, 1, 0));
  SLIMFAST_CHECK_OK(builder.SetTruth(0, 0));
  SLIMFAST_CHECK_OK(builder.SetTruth(1, 1));
  Dataset c = std::move(builder).Build().ValueOrDie();
  EXPECT_NE(DatasetCompilationFingerprint(a),
            DatasetCompilationFingerprint(c));

  // Same observations, different truth: different fingerprint.
  DatasetBuilder builder2("figure1", 3, 2, 2);
  SLIMFAST_CHECK_OK(builder2.AddObservation(0, 0, 0));
  SLIMFAST_CHECK_OK(builder2.AddObservation(0, 1, 1));
  SLIMFAST_CHECK_OK(builder2.AddObservation(0, 2, 0));
  SLIMFAST_CHECK_OK(builder2.AddObservation(1, 0, 1));
  SLIMFAST_CHECK_OK(builder2.AddObservation(1, 2, 1));
  SLIMFAST_CHECK_OK(builder2.SetTruth(0, 1));
  SLIMFAST_CHECK_OK(builder2.SetTruth(1, 1));
  Dataset d = std::move(builder2).Build().ValueOrDie();
  EXPECT_NE(DatasetCompilationFingerprint(a),
            DatasetCompilationFingerprint(d));

  // A feature-set change (sigma sparsity) changes the fingerprint too.
  DatasetBuilder builder3("figure1", 3, 2, 2);
  SLIMFAST_CHECK_OK(builder3.AddObservation(0, 0, 0));
  SLIMFAST_CHECK_OK(builder3.AddObservation(0, 1, 1));
  SLIMFAST_CHECK_OK(builder3.AddObservation(0, 2, 0));
  SLIMFAST_CHECK_OK(builder3.AddObservation(1, 0, 1));
  SLIMFAST_CHECK_OK(builder3.AddObservation(1, 2, 1));
  SLIMFAST_CHECK_OK(builder3.SetTruth(0, 0));
  SLIMFAST_CHECK_OK(builder3.SetTruth(1, 1));
  FeatureId k = builder3.mutable_features()->RegisterFeature("venue=journal");
  SLIMFAST_CHECK_OK(builder3.mutable_features()->SetFeature(0, k));
  Dataset e = std::move(builder3).Build().ValueOrDie();
  EXPECT_NE(DatasetCompilationFingerprint(a),
            DatasetCompilationFingerprint(e));
}

TEST(CompiledInstanceCacheTest, HitsOnSameContentMissesOnDifferent) {
  CompiledInstanceCache cache;
  Dataset a = MakeFigure1Dataset();
  ModelConfig config;

  auto first = cache.GetOrCompile(a, config).ValueOrDie();
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 0);

  // Same content (even a distinct Dataset object) hits.
  Dataset b = MakeFigure1Dataset();
  auto second = cache.GetOrCompile(b, config).ValueOrDie();
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(first.get(), second.get());

  // A different config misses.
  ModelConfig sources_only;
  sources_only.use_feature_weights = false;
  auto third = cache.GetOrCompile(a, sources_only).ValueOrDie();
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_NE(first.get(), third.get());

  // Different dataset content misses.
  const std::vector<double> planted = {0.9, 0.8};
  Dataset c = MakePlantedDataset(planted, 20, 0.5, 3);
  auto fourth = cache.GetOrCompile(c, config).ValueOrDie();
  EXPECT_EQ(cache.misses(), 3);
  EXPECT_EQ(cache.size(), 3u);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CompiledInstanceCacheTest, EvictsLeastRecentlyUsed) {
  CompiledInstanceCache cache(/*capacity=*/2);
  ModelConfig config;
  const std::vector<double> planted = {0.9, 0.8};
  Dataset a = MakePlantedDataset(planted, 10, 0.9, 1);
  Dataset b = MakePlantedDataset(planted, 11, 0.9, 2);
  Dataset c = MakePlantedDataset(planted, 12, 0.9, 3);

  (void)cache.GetOrCompile(a, config).ValueOrDie();
  (void)cache.GetOrCompile(b, config).ValueOrDie();
  (void)cache.GetOrCompile(a, config).ValueOrDie();  // refresh a
  (void)cache.GetOrCompile(c, config).ValueOrDie();  // evicts b
  EXPECT_EQ(cache.size(), 2u);

  int64_t misses_before = cache.misses();
  (void)cache.GetOrCompile(a, config).ValueOrDie();  // still cached
  EXPECT_EQ(cache.misses(), misses_before);
  (void)cache.GetOrCompile(b, config).ValueOrDie();  // recompiles
  EXPECT_EQ(cache.misses(), misses_before + 1);
}

TEST(CompiledInstanceCacheTest, GlobalCacheIsSharedAcrossFits) {
  CompiledInstanceCache& global = CompiledInstanceCache::Global();
  global.Clear();
  int64_t misses_before = global.misses();

  const std::vector<double> planted = {0.9, 0.8, 0.7};
  Dataset dataset = MakePlantedDataset(planted, 40, 0.5, 9);
  Rng rng(2);
  TrainTestSplit split = MakeSplit(dataset, 0.2, &rng).ValueOrDie();
  auto method = MakeSlimFast();
  (void)method->Run(dataset, split, 1).ValueOrDie();
  (void)method->Run(dataset, split, 2).ValueOrDie();
  // Two runs on the same dataset + config compile once.
  EXPECT_EQ(global.misses(), misses_before + 1);
  global.Clear();
}

}  // namespace
}  // namespace slimfast

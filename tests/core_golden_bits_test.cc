// Pinned-bits golden test: exact outputs of the SLiMFast presets, the
// batch learners, and a FusionSession replay, captured once and compared
// bit for bit on every run. The other oracles compare two configurations
// of the current code against each other (1 vs N threads, SIMD vs scalar,
// delta vs full compile); this one compares the current code against a
// recorded past, so a refactor that moves every configuration by the same
// bit still fails here.
//
// Each record pins a 64-bit FNV-1a hash of the predicted values, the exact
// IEEE-754 bit pattern of every reported source accuracy, and the number
// of learner iterations. On a mismatch the failure message prints the
// actual record as a C++ initializer. Replace the expected record only
// when a change is meant to move results, and say so in the change log.

#include <cstdint>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fusion_session.h"
#include "core/slimfast.h"
#include "data/observation_store.h"
#include "data/split.h"
#include "test_util.h"
#include "util/random.h"

namespace slimfast {
namespace {

using testutil::AllSlimFastPresets;
using testutil::MakeFigure1Dataset;

struct GoldenRecord {
  uint64_t predicted_hash = 0;
  std::vector<uint64_t> accuracy_bits;
  int32_t learn_iterations = 0;

  bool operator==(const GoldenRecord&) const = default;
};

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

uint64_t Fnv1a(uint64_t h, uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (8 * byte)) & 0xffULL;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

uint64_t HashValues(const std::vector<ValueId>& values) {
  uint64_t h = kFnvOffset;
  for (ValueId v : values) {
    h = Fnv1a(h, static_cast<uint64_t>(static_cast<uint32_t>(v)));
  }
  return h;
}

std::vector<uint64_t> BitsOf(const std::vector<double>& xs) {
  std::vector<uint64_t> bits;
  bits.reserve(xs.size());
  for (double x : xs) bits.push_back(Bits(x));
  return bits;
}

std::string ToInitializer(const std::string& name, const GoldenRecord& r) {
  std::ostringstream out;
  out << "{\"" << name << "\", {0x" << std::hex << r.predicted_hash
      << "ULL, {";
  for (size_t i = 0; i < r.accuracy_bits.size(); ++i) {
    out << (i ? ", " : "") << "0x" << r.accuracy_bits[i] << "ULL";
  }
  out << "}, " << std::dec << r.learn_iterations << "}},";
  return out.str();
}

// Expected records, captured from the release build with gcc. Names are
// "<dataset>/<configuration>". Re-pinned once when the accuracy-loss
// learner changed (ROADMAP item C): EM's M-step and Run's calibration pass
// moved from SGD over every claim to the solver over per-source claim
// counts, which moves every EM record and every reported accuracy.
const std::map<std::string, GoldenRecord>& Expected() {
  static const auto* expected = new std::map<std::string, GoldenRecord>{
      {"figure1/SLiMFast",
       {0x692558b056101a44ULL,
        {0x3fe5552563d3395dULL, 0x3fe0000000000000ULL, 0x3fe5552563d3395dULL},
        4}},
      {"figure1/SLiMFast-EM",
       {0x692558b056101a44ULL,
        {0x3fe7ff8cd56e95d4ULL, 0x3fd555b6383d125aULL, 0x3fe7ff8cd56e95d4ULL},
        4}},
      {"figure1/SLiMFast-ERM",
       {0x692558b056101a44ULL,
        {0x3fe5552563d3395dULL, 0x3fe0000000000000ULL, 0x3fe5552563d3395dULL},
        4}},
      {"figure1/Sources-EM",
       {0x692558b056101a44ULL,
        {0x3fe7ff8cd56e95d4ULL, 0x3fd555b6383d125aULL, 0x3fe7ff8cd56e95d4ULL},
        4}},
      {"figure1/Sources-ERM",
       {0x692558b056101a44ULL,
        {0x3fe5552563d3395dULL, 0x3fe0000000000000ULL, 0x3fe5552563d3395dULL},
        4}},
      {"multiclass/SLiMFast",
       {0x324e5cd8b2a84784ULL,
        {0x3feebc92f0302509ULL, 0x3fec21b82db0bdb8ULL, 0x3fe3cb60cf6d4f23ULL,
         0x3feda08d7a2f2549ULL, 0x3fe0124f2dd5aa23ULL, 0x3fe8778b0b7a7351ULL},
        5}},
      {"multiclass/SLiMFast-EM",
       {0x324e5cd8b2a84784ULL,
        {0x3feebc92f0302509ULL, 0x3fec21b82db0bdb8ULL, 0x3fe3cb60cf6d4f23ULL,
         0x3feda08d7a2f2549ULL, 0x3fe0124f2dd5aa23ULL, 0x3fe8778b0b7a7351ULL},
        5}},
      {"multiclass/SLiMFast-ERM",
       {0x7e3d9549db106dc6ULL,
        {0x3fef4f96fa8172ddULL, 0x3fede7c2c6e01069ULL, 0x3fe332d6a77e22a1ULL,
         0x3fef3d4449b08d8fULL, 0x3fd999fa1e74d758ULL, 0x3feaa99fcd33e50aULL},
        60}},
      {"multiclass/Sources-EM",
       {0xbf73548b39b1847ULL,
        {0x3fede4b7ca057a18ULL, 0x3fe9b14efd89923eULL, 0x3fe4cc4f594f1da3ULL,
         0x3fec909ccd9ce906ULL, 0x3fe000000000000fULL, 0x3fec3aa6a01ee273ULL},
        6}},
      {"multiclass/Sources-ERM",
       {0x60a090d376cedbe6ULL,
        {0x3fed53a83e7f9277ULL, 0x3feaa9822d6d2449ULL, 0x3fe332ef30ef9c45ULL,
         0x3fec7073eebeecaaULL, 0x3fd99a21ad51e6b8ULL, 0x3feaa9cab9c1db9dULL},
        60}},
      {"multiclass/batch-ERM",
       {0xc61111984c5575e5ULL,
        {0x3fef4f8222e2db01ULL, 0x3fede7fa4ff373d0ULL, 0x3fe332f0c393444dULL,
         0x3fef3d2d2bb8756aULL, 0x3fd99a232c6fdb52ULL, 0x3feaa8ff2306add9ULL},
        60}},
      {"multiclass/session-4-chunks",
       {0x251d9d5b4154306bULL,
        {0x3fefb0bbfc70f286ULL, 0x3fecaf58fe6f8d1eULL, 0x3fefe905b8668a63ULL,
         0x3fefe2029f1dba4eULL, 0x3fefc72c007995c8ULL, 0x3fef2b9925f20cccULL},
        15}},
  };
  return *expected;
}

void ExpectGolden(const std::string& name, const GoldenRecord& actual) {
  auto it = Expected().find(name);
  ASSERT_NE(it, Expected().end())
      << "no golden record for " << name << "; actual:\n"
      << ToInitializer(name, actual);
  EXPECT_TRUE(it->second == actual)
      << "golden mismatch for " << name << "; actual:\n"
      << ToInitializer(name, actual);
}

// A planted 4-valued instance with per-source features: every object has
// a multiclass domain (non-zero log(|D_o| - 1) offsets), truth varies by
// object, and the trust scores mix source and feature weights.
Dataset MakeMulticlassDataset() {
  const std::vector<double> accuracy = {0.9, 0.8, 0.7, 0.85, 0.6, 0.75};
  const int32_t num_sources = static_cast<int32_t>(accuracy.size());
  const int32_t num_objects = 120;
  const int32_t num_values = 4;
  Rng rng(31);
  DatasetBuilder builder("multiclass", num_sources, num_objects, num_values);
  FeatureSpace* features = builder.mutable_features();
  const FeatureId high = features->RegisterFeature("high");
  const FeatureId low = features->RegisterFeature("low");
  for (SourceId s : {0, 1, 3}) {
    SLIMFAST_CHECK_OK(features->SetFeature(s, high));
  }
  for (SourceId s : {2, 4}) SLIMFAST_CHECK_OK(features->SetFeature(s, low));
  for (ObjectId o = 0; o < num_objects; ++o) {
    const ValueId truth = static_cast<ValueId>(rng.UniformInt(num_values));
    for (SourceId s = 0; s < num_sources; ++s) {
      if (!rng.Bernoulli(0.45)) continue;
      ValueId v = truth;
      if (!rng.Bernoulli(accuracy[static_cast<size_t>(s)])) {
        const ValueId shift =
            1 + static_cast<ValueId>(rng.UniformInt(num_values - 1));
        v = (truth + shift) % num_values;
      }
      SLIMFAST_CHECK_OK(builder.AddObservation(o, s, v));
    }
    SLIMFAST_CHECK_OK(builder.SetTruth(o, truth));
  }
  return std::move(builder).Build().ValueOrDie();
}

struct NamedDataset {
  std::string name;
  Dataset dataset;
};

std::vector<NamedDataset> GoldenDatasets() {
  std::vector<NamedDataset> datasets;
  datasets.push_back({"figure1", MakeFigure1Dataset()});
  datasets.push_back({"multiclass", MakeMulticlassDataset()});
  return datasets;
}

TrainTestSplit GoldenSplit(const Dataset& dataset) {
  Rng rng(4);
  return MakeSplit(dataset, 0.15, &rng).ValueOrDie();
}

// Runs `method` end to end (predictions and calibrated accuracies) and
// fits it once more for the learner iteration count.
GoldenRecord RunRecord(const SlimFast& method, const Dataset& dataset,
                       const TrainTestSplit& split, uint64_t seed) {
  SlimFast runner(method.options(), method.name());
  FusionOutput output = runner.Run(dataset, split, seed).ValueOrDie();
  Executor exec(method.options().exec);
  SlimFastFit fit = method.Fit(dataset, split, seed, &exec).ValueOrDie();
  return GoldenRecord{HashValues(output.predicted_values),
                      BitsOf(output.source_accuracies),
                      fit.learn_iterations};
}

TEST(GoldenBitsTest, AllPresetsBothDatasetsOneAndFourThreads) {
  for (const NamedDataset& named : GoldenDatasets()) {
    TrainTestSplit split = GoldenSplit(named.dataset);
    for (const auto& preset : AllSlimFastPresets()) {
      for (int32_t threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        SlimFastOptions options;
        options.exec.threads = threads;
        ExpectGolden(named.name + "/" + preset.name,
                     RunRecord(*preset.make_with(options), named.dataset,
                               split, 123));
      }
    }
  }
}

TEST(GoldenBitsTest, BatchErm) {
  Dataset dataset = MakeMulticlassDataset();
  TrainTestSplit split = GoldenSplit(dataset);
  for (int32_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SlimFastOptions batch_erm;
    batch_erm.exec.threads = threads;
    batch_erm.erm.batch = true;
    ExpectGolden("multiclass/batch-ERM",
                 RunRecord(*MakeSlimFastErm(batch_erm), dataset, split, 77));
  }
}

// A 4-chunk FusionSession replay with a relearn after every chunk (so the
// warm-start path runs), keeping truth for every fourth object only. The
// record pins the final snapshot: predictions hashed together with the
// full posterior CSR (candidate values and probability bits).
TEST(GoldenBitsTest, FusionSessionFourChunkReplay) {
  Dataset dataset = MakeMulticlassDataset();
  for (int32_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    FusionSessionOptions options;
    options.slimfast.exec.threads = threads;
    FusionSession session =
        FusionSession::Create(dataset.num_sources(), dataset.num_objects(),
                              dataset.num_values(), options,
                              dataset.features())
            .ValueOrDie();
    RelearnStats last;
    for (ObservationBatch& chunk : ChunkDatasetForReplay(dataset, 4)) {
      std::vector<TruthLabel> kept;
      for (const TruthLabel& label : chunk.truths) {
        if (label.object % 4 == 0) kept.push_back(label);
      }
      chunk.truths = std::move(kept);
      SLIMFAST_CHECK_OK(session.Ingest(chunk).status());
      last = session.Relearn().ValueOrDie();
    }
    FusionSnapshotPtr snapshot = session.ExportSnapshot();
    uint64_t h = HashValues(snapshot->predictions);
    for (int64_t begin : snapshot->posterior_begin) {
      h = Fnv1a(h, static_cast<uint64_t>(begin));
    }
    h = Fnv1a(h, HashValues(snapshot->posterior_values));
    for (double p : snapshot->posterior_probs) h = Fnv1a(h, Bits(p));
    ExpectGolden("multiclass/session-4-chunks",
                 GoldenRecord{h, BitsOf(snapshot->source_accuracies),
                              last.learn_iterations});
  }
}

}  // namespace
}  // namespace slimfast

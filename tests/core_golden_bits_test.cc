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
// "<dataset>/<configuration>".
const std::map<std::string, GoldenRecord>& Expected() {
  static const auto* expected = new std::map<std::string, GoldenRecord>{
      {"figure1/SLiMFast",
       {0x692558b056101a44ULL,
        {0x3feacc3540efdcd1ULL, 0x3fe0000000000000ULL, 0x3feacc3540efdcd1ULL},
        4}},
      {"figure1/SLiMFast-EM",
       {0x692558b056101a44ULL,
        {0x3feffa1381572c83ULL, 0x3f68a80b11b4d0b2ULL, 0x3feffa1381572c83ULL},
        5}},
      {"figure1/SLiMFast-ERM",
       {0x692558b056101a44ULL,
        {0x3feacc3540efdcd1ULL, 0x3fe0000000000000ULL, 0x3feacc3540efdcd1ULL},
        4}},
      {"figure1/Sources-EM",
       {0x692558b056101a44ULL,
        {0x3feffa1381572c83ULL, 0x3f68a80b11b4d0b2ULL, 0x3feffa1381572c83ULL},
        5}},
      {"figure1/Sources-ERM",
       {0x692558b056101a44ULL,
        {0x3feacc3540efdcd1ULL, 0x3fe0000000000000ULL, 0x3feacc3540efdcd1ULL},
        4}},
      {"multiclass/SLiMFast",
       {0x3aa071e73c5df544ULL,
        {0x3fede97c85d42455ULL, 0x3fea0064c298b512ULL, 0x3fe432a947342d47ULL,
         0x3fef3a3a8c3114a5ULL, 0x3fdfa7ebcdf4f824ULL, 0x3feb88ba5ad3e80fULL},
        30}},
      {"multiclass/SLiMFast-EM",
       {0x3aa071e73c5df544ULL,
        {0x3fede97c85d42455ULL, 0x3fea0064c298b512ULL, 0x3fe432a947342d47ULL,
         0x3fef3a3a8c3114a5ULL, 0x3fdfa7ebcdf4f824ULL, 0x3feb88ba5ad3e80fULL},
        30}},
      {"multiclass/SLiMFast-ERM",
       {0x7e3d9549db106dc6ULL,
        {0x3feff4690a7b736dULL, 0x3fed2286a46a429bULL, 0x3fe44b06e92da6e8ULL,
         0x3feff660d825fc82ULL, 0x3fd720ffd2a12fceULL, 0x3fef7dd30a89aae6ULL},
        60}},
      {"multiclass/Sources-EM",
       {0xbf73548b39b1847ULL,
        {0x3feeb3057f86e51dULL, 0x3fea07ea594d6954ULL, 0x3fe5275586a2b45fULL,
         0x3fed41abab23085aULL, 0x3fdf5c48d6b7206aULL, 0x3fecee00bafcd298ULL},
        30}},
      {"multiclass/Sources-ERM",
       {0x60a090d376cedbe6ULL,
        {0x3fefd69723080f6fULL, 0x3fec892b58db79e0ULL, 0x3fe3974ba6d95b7fULL,
         0x3fefcfd72e773960ULL, 0x3fd50efb3ca3b5d9ULL, 0x3fef941363393e3fULL},
        60}},
      {"multiclass/batch-ERM",
       {0xc61111984c5575e5ULL,
        {0x3fefe2fe4241164cULL, 0x3fed3e22f63623b1ULL, 0x3fe403d157ff14a9ULL,
         0x3fefbb5fd8a5fc18ULL, 0x3fd7fa65f97b4a19ULL, 0x3feea3ac5e088b05ULL},
        60}},
      {"multiclass/session-4-chunks",
       {0x251d9d5b4154306bULL,
        {0x3fefb0bbfc70f286ULL, 0x3fecaf58fe6f8d1eULL, 0x3fefe905b8668a63ULL,
         0x3fefe2029f1dba4eULL, 0x3fefc72c007995c8ULL, 0x3fef2b9925f20cccULL},
        15}},
      {"multiclass/soft-EM-batch-M-step",
       {0x61b21896e6513404ULL,
        {0x3febb88e5b7fbb60ULL, 0x3fec09c3975c525fULL, 0x3fe525aeb32e03edULL,
         0x3fedb1b1dd890271ULL, 0x3fe01d96678ea829ULL, 0x3fea416be64cd2fcULL},
        30}},
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

TEST(GoldenBitsTest, BatchErmAndSoftEmBatchMStep) {
  Dataset dataset = MakeMulticlassDataset();
  TrainTestSplit split = GoldenSplit(dataset);
  for (int32_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SlimFastOptions batch_erm;
    batch_erm.exec.threads = threads;
    batch_erm.erm.batch = true;
    ExpectGolden("multiclass/batch-ERM",
                 RunRecord(*MakeSlimFastErm(batch_erm), dataset, split, 77));

    SlimFastOptions soft_em;
    soft_em.exec.threads = threads;
    soft_em.em.soft = true;
    soft_em.em.m_step.batch = true;
    ExpectGolden("multiclass/soft-EM-batch-M-step",
                 RunRecord(*MakeSlimFastEm(soft_em), dataset, split, 77));
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

// Bitwise scalar-vs-wide contract tests for the SIMD kernel layer.
//
// Every comparison here is exact (BitEq), never tolerance-based: the wide
// table is the same template code as the scalar table, so any bit of
// divergence means the determinism contract is broken (FMA contraction
// leaked in, a reduction picked up a width-dependent order, ...).
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "simd/kernels_impl.h"
#include "simd/simd.h"

namespace slimfast {
namespace simd {
namespace {

using internal::kScalarTable;
using internal::KernelTable;

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, 8);
  return b;
}

#define EXPECT_BITEQ(a, b) EXPECT_EQ(Bits(a), Bits(b))

const double kInf = std::numeric_limits<double>::infinity();
const double kNaN = std::numeric_limits<double>::quiet_NaN();

// Mixed-magnitude random doubles plus special values at the front.
std::vector<double> TestInputs(int n, uint64_t seed, bool specials) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> x;
  if (specials) {
    x = {0.0,    -0.0,   1.0,     -1.0,   709.0,  -709.0, 710.0,
         -746.0, 1000.0, -1000.0, kInf,   -kInf,  kNaN,   5e-324,
         1e-308, 0.5,    -0.5,    1e-15,  -1e-15, 88.0,   -88.0};
  }
  while (static_cast<int>(x.size()) < n) {
    const int mode = static_cast<int>(rng() % 4);
    double v = unit(rng);
    if (mode == 1) v *= 700.0;
    if (mode == 2) v *= 1e-300;
    if (mode == 3) v *= 1e6;
    x.push_back(v);
  }
  x.resize(n);
  return x;
}

class SimdKernelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kWideCompiledIn || !WideAvailable()) {
      GTEST_SKIP() << "wide kernel table not available in this build";
    }
  }

  static bool WideAvailable() {
    SetWideEnabledForTest(true);
    const bool ok = WideEnabled();
    SetWideEnabledForTest(false);
    return ok;
  }

  const KernelTable& Wide() {
    SetWideEnabledForTest(true);
    const KernelTable& t = internal::Active();
    SetWideEnabledForTest(false);
    return t;
  }

  void TearDown() override {
    // Leave the process-default dispatch for other tests in this binary.
    SetWideEnabledForTest(kWideCompiledIn && WideAvailable());
  }
};

TEST_F(SimdKernelsTest, ElementwiseMapsMatchScalarBitwise) {
  const KernelTable& wide = Wide();
  // Odd length exercises the scalar tail after the W-blocked loop.
  for (int n : {0, 1, 7, 8, 9, 64, 1003}) {
    const auto x = TestInputs(n, 17 + n, /*specials=*/n >= 21);
    std::vector<double> ys(n), yw(n);
    struct Map {
      const char* name;
      void (*s)(const double*, double*, int64_t);
      void (*w)(const double*, double*, int64_t);
    } maps[] = {
        {"exp", kScalarTable.batch_exp, wide.batch_exp},
        {"log", kScalarTable.batch_log, wide.batch_log},
        {"sigmoid", kScalarTable.batch_sigmoid, wide.batch_sigmoid},
        {"softplus_neg", kScalarTable.batch_softplus_neg,
         wide.batch_softplus_neg},
    };
    for (const auto& m : maps) {
      m.s(x.data(), ys.data(), n);
      m.w(x.data(), yw.data(), n);
      for (int i = 0; i < n; ++i) {
        EXPECT_BITEQ(ys[i], yw[i])
            << m.name << " diverges at i=" << i << " x=" << x[i];
      }
    }
  }
}

TEST_F(SimdKernelsTest, ReductionsMatchScalarBitwise) {
  const KernelTable& wide = Wide();
  for (int n : {1, 2, 7, 8, 9, 16, 17, 100, 1003}) {
    const auto a = TestInputs(n, 23 + n, false);
    EXPECT_BITEQ(kScalarTable.max_val(a.data(), n),
                 wide.max_val(a.data(), n));
  }
}

TEST_F(SimdKernelsTest, CsrPipelineMatchesScalarBitwise) {
  const KernelTable& wide = Wide();
  std::mt19937_64 rng(7);
  // Synthetic CSR: 200 rows of 1..6 candidates, candidates of 0..12 terms.
  std::vector<int64_t> row_begin{0}, cand_term_begin{0};
  std::vector<double> coeff, offsets;
  std::vector<int32_t> param;
  const int32_t num_params = 97;
  for (int r = 0; r < 200; ++r) {
    const int dom = 1 + static_cast<int>(rng() % 6);
    for (int d = 0; d < dom; ++d) {
      const int nt = static_cast<int>(rng() % 13);
      offsets.push_back(0.01 * static_cast<double>(rng() % 200) - 1.0);
      for (int t = 0; t < nt; ++t) {
        coeff.push_back(0.001 * static_cast<double>(rng() % 2000) - 1.0);
        param.push_back(static_cast<int32_t>(rng() % num_params));
      }
      cand_term_begin.push_back(static_cast<int64_t>(coeff.size()));
    }
    row_begin.push_back(static_cast<int64_t>(offsets.size()));
  }
  std::vector<double> w(num_params);
  for (auto& v : w) v = 0.01 * static_cast<double>(rng() % 1000) - 5.0;
  const int64_t ncand = static_cast<int64_t>(offsets.size());
  const int64_t nterms = static_cast<int64_t>(coeff.size());

  auto run = [&](const KernelTable& t) {
    std::vector<double> prod(nterms), scores(ncand);
    t.term_products(coeff.data(), param.data(), w.data(), prod.data(),
                    nterms);
    t.fold_ranges(cand_term_begin.data(), ncand, 0, prod.data(),
                  offsets.data(), scores.data());
    t.softmax_rows(row_begin.data(), 200, 0, scores.data());
    return scores;
  };
  const auto s = run(kScalarTable);
  const auto v = run(wide);
  ASSERT_EQ(s.size(), v.size());
  for (size_t i = 0; i < s.size(); ++i) EXPECT_BITEQ(s[i], v[i]);
}

// The n <= kAccLanes sequential fast path inside LaneSum must be
// bit-identical to the padded kAccLanes-accumulator fold it shortcuts —
// including signed zeros, subnormals, infinities, and NaN payloads.
TEST(LaneSumFastPathTest, ShortRangesEqualPaddedFold) {
  auto padded_fold = [](const double* x, int64_t n) {
    double acc[kAccLanes] = {0.0};
    for (int64_t i = 0; i < n; ++i) acc[i % kAccLanes] += x[i];
    double s = 0.0;
    for (int j = 0; j < kAccLanes; ++j) s += acc[j];
    return s;
  };
  std::mt19937_64 rng(3);
  std::vector<double> pool = {0.0,   -0.0, 1.0,    -1.0, 5e-324, -5e-324,
                              1e308, kInf, -kInf,  kNaN, 1e-15,  -1e-15,
                              3.5,   -2.25, 1e100, -1e100};
  for (int trial = 0; trial < 2000; ++trial) {
    const int n = static_cast<int>(rng() % (kAccLanes + 1));  // 0..8
    std::vector<double> x(n);
    for (auto& v : x) v = pool[rng() % pool.size()];
    double seq = 0.0;
    for (int i = 0; i < n; ++i) seq += x[i];
    EXPECT_BITEQ(seq, padded_fold(x.data(), n)) << "n=" << n;
  }
}

TEST(ElemTest, ExpElemSpecialValues) {
  EXPECT_BITEQ(ExpElem(0.0), 1.0);
  EXPECT_BITEQ(ExpElem(-kInf), 0.0);
  EXPECT_BITEQ(ExpElem(kInf), kInf);
  EXPECT_BITEQ(ExpElem(710.0), kInf);
  EXPECT_BITEQ(ExpElem(1000.0), kInf);
  EXPECT_TRUE(std::isnan(ExpElem(kNaN)));
  EXPECT_BITEQ(ExpElem(-746.0), 0.0);
  EXPECT_BITEQ(ExpElem(-1000.0), 0.0);
  // exp(709.7) is still finite (just below DBL_MAX).
  EXPECT_TRUE(std::isfinite(ExpElem(709.7)));
  // exp(-745) is subnormal but nonzero.
  EXPECT_GT(ExpElem(-745.0), 0.0);
  EXPECT_LT(ExpElem(-745.0), 2.3e-308);
}

TEST(ElemTest, ExpLogAccuracyVsStd) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  double max_rel_exp = 0.0, max_rel_log = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double x = unit(rng) * 700.0;
    const double e = ExpElem(x), se = std::exp(x);
    if (se > 0.0 && std::isfinite(se)) {
      max_rel_exp = std::max(max_rel_exp, std::abs(e - se) / se);
    }
    const double p = std::abs(unit(rng)) * 1e6 + 1e-12;
    const double l = LogElem(p), sl = std::log(p);
    if (sl != 0.0) {
      max_rel_log = std::max(max_rel_log, std::abs(l - sl) / std::abs(sl));
    }
  }
  EXPECT_LT(max_rel_exp, 1e-13);
  EXPECT_LT(max_rel_log, 1e-13);
}

TEST(ElemTest, LogElemSpecialValues) {
  EXPECT_BITEQ(LogElem(1.0), 0.0);
  EXPECT_BITEQ(LogElem(0.0), -kInf);
  EXPECT_BITEQ(LogElem(-0.0), -kInf);
  EXPECT_BITEQ(LogElem(kInf), kInf);
  EXPECT_TRUE(std::isnan(LogElem(-1.0)));
  EXPECT_TRUE(std::isnan(LogElem(kNaN)));
  // Subnormal input: log(5e-324) ~ -744.44.
  EXPECT_NEAR(LogElem(5e-324), std::log(5e-324), 1e-10);
}

TEST(ElemTest, SigmoidAndSoftplusSpecialValues) {
  EXPECT_BITEQ(SigmoidElem(0.0), 0.5);
  EXPECT_BITEQ(SigmoidElem(kInf), 1.0);
  EXPECT_BITEQ(SigmoidElem(-kInf), 0.0);
  EXPECT_TRUE(std::isnan(SigmoidElem(kNaN)));
  EXPECT_BITEQ(Log1pExpElem(-kInf), 0.0);
  EXPECT_BITEQ(Log1pExpElem(kInf), kInf);
  EXPECT_TRUE(std::isnan(Log1pExpElem(kNaN)));
  // Large-|x| asymptotics: softplus(x) -> x, softplus(-x) -> 0.
  EXPECT_NEAR(Log1pExpElem(800.0), 800.0, 1e-9);
  EXPECT_BITEQ(Log1pExpElem(-800.0), 0.0);
}

// LaneStableSum (the AoS-walk helper used by model score paths) must
// produce the kernels' LaneSum bits over the same values (a one-range
// fold_ranges is exactly one LaneSum).
TEST(LaneStableSumTest, MatchesKernelSumBitwise) {
  std::mt19937_64 rng(29);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (int n : {0, 1, 5, 8, 9, 16, 31, 200}) {
    std::vector<double> x(n);
    for (auto& v : x) v = unit(rng) * 1e3;
    const double a = LaneStableSum(n, [&](int64_t i) { return x[i]; });
    const int64_t range[2] = {0, n};
    double b = 0.0;
    internal::kScalarTable.fold_ranges(range, 1, 0, x.data(), nullptr, &b);
    EXPECT_BITEQ(a, b) << "n=" << n;
  }
}

TEST(SimdConfigTest, KillSwitchFallsBackToScalar) {
  SetWideEnabledForTest(false);
  EXPECT_FALSE(WideEnabled());
  EXPECT_EQ(ActiveWidth(), 1);
  // Kernels still work through the scalar table.
  double x = 1.0, y = 0.0;
  BatchExp(&x, &y, 1);
  EXPECT_BITEQ(y, ExpElem(1.0));
  SetWideEnabledForTest(true);
  if (kWideCompiledIn && WideEnabled()) {
    EXPECT_EQ(ActiveWidth(), kWideWidth);
  }
}

}  // namespace
}  // namespace simd
}  // namespace slimfast

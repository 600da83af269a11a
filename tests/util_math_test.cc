#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/math.h"

namespace slimfast {
namespace {

TEST(SigmoidTest, KnownValues) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(std::log(3.0)), 0.75, 1e-12);
  EXPECT_NEAR(Sigmoid(-std::log(3.0)), 0.25, 1e-12);
}

TEST(SigmoidTest, SaturatesWithoutOverflow) {
  EXPECT_NEAR(Sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-1000.0), 0.0, 1e-12);
  EXPECT_TRUE(std::isfinite(Sigmoid(709.0)));
  EXPECT_TRUE(std::isfinite(Sigmoid(-709.0)));
}

TEST(SigmoidTest, ExactSaturationBeyondExpRange) {
  // Past |x| > 709 the underlying exp saturates; the sigmoid must land on
  // the exact IEEE endpoints, not merely near them.
  EXPECT_EQ(Sigmoid(710.0), 1.0);
  EXPECT_EQ(Sigmoid(1000.0), 1.0);
  EXPECT_EQ(Sigmoid(-746.5), 0.0);
  EXPECT_EQ(Sigmoid(-1000.0), 0.0);
}

TEST(SigmoidTest, InfinitiesAndNan) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Sigmoid(inf), 1.0);
  EXPECT_EQ(Sigmoid(-inf), 0.0);
  EXPECT_TRUE(std::isnan(Sigmoid(std::nan(""))));
}

TEST(SigmoidTest, DenormalArguments) {
  // A denormal logit is indistinguishable from zero at double precision;
  // the result must be exactly 1/2 and finite, not a flushed garbage
  // value.
  const double denorm = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(Sigmoid(denorm), 0.5);
  EXPECT_EQ(Sigmoid(-denorm), 0.5);
}

TEST(SigmoidTest, LogitIsInverse) {
  for (double p : {0.01, 0.2, 0.5, 0.8, 0.99}) {
    EXPECT_NEAR(Sigmoid(Logit(p)), p, 1e-12);
  }
}

TEST(LogitTest, ClampsExtremes) {
  EXPECT_TRUE(std::isfinite(Logit(0.0)));
  EXPECT_TRUE(std::isfinite(Logit(1.0)));
  EXPECT_LT(Logit(0.0), Logit(1e-6));
  EXPECT_GT(Logit(1.0), Logit(1.0 - 1e-6));
}

TEST(ClampTest, Bounds) {
  EXPECT_DOUBLE_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(0.3, 0.0, 1.0), 0.3);
}

TEST(LogSumExpTest, MatchesDirectComputation) {
  std::vector<double> xs = {0.1, 0.7, -0.3};
  double direct = std::log(std::exp(0.1) + std::exp(0.7) + std::exp(-0.3));
  EXPECT_NEAR(LogSumExp(xs), direct, 1e-12);
}

TEST(LogSumExpTest, StableForLargeInputs) {
  std::vector<double> xs = {1000.0, 1000.0};
  EXPECT_NEAR(LogSumExp(xs), 1000.0 + std::log(2.0), 1e-9);
  std::vector<double> neg = {-1000.0, -1001.0};
  EXPECT_TRUE(std::isfinite(LogSumExp(neg)));
}

TEST(LogSumExpTest, EmptyIsNegInfinity) {
  EXPECT_TRUE(std::isinf(LogSumExp({})));
  EXPECT_LT(LogSumExp({}), 0);
}

TEST(LogSumExpTest, SingletonIsIdentity) {
  // log(exp(x)) must return x bit-exactly (the reduced sum is exactly 1
  // and log(1) is exactly 0), including at denormal and huge arguments.
  for (double x : {0.0, -3.5, 1e-300, 800.0, -800.0,
                   std::numeric_limits<double>::denorm_min()}) {
    EXPECT_EQ(LogSumExp({x}), x) << "x=" << x;
  }
}

TEST(LogSumExpTest, InfinitiesDominateOrVanish) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(LogSumExp({inf}), inf);
  EXPECT_EQ(LogSumExp({0.0, inf, -4.0}), inf);
  // -inf terms contribute exp(-inf) = 0 and drop out exactly.
  EXPECT_EQ(LogSumExp({0.0, -inf}), 0.0);
  EXPECT_EQ(LogSumExp({-inf, -inf}), -inf);
}

TEST(LogSumExpTest, NanPropagatesFromAnyPosition) {
  const double nan = std::nan("");
  EXPECT_TRUE(std::isnan(LogSumExp({nan})));
  EXPECT_TRUE(std::isnan(LogSumExp({nan, 1.0, 2.0})));
  EXPECT_TRUE(std::isnan(LogSumExp({1.0, 2.0, nan})));
}

TEST(LogSumExpTest, BeyondExpRangeStaysFinite) {
  // Arguments past the exp overflow/underflow thresholds: the max-shift
  // keeps every reduced argument <= 0, so no intermediate overflows.
  EXPECT_NEAR(LogSumExp({800.0, 800.0}), 800.0 + std::log(2.0), 1e-9);
  EXPECT_NEAR(LogSumExp({-800.0, -800.0}), -800.0 + std::log(2.0), 1e-9);
  // A hopeless underdog underflows to zero weight and drops out.
  EXPECT_EQ(LogSumExp({0.0, -800.0}), 0.0);
}

TEST(LogSumExpTest, DenormalInputs) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  // Both terms are ~0, so the result is log(2) up to one ulp of denorm.
  EXPECT_NEAR(LogSumExp({denorm, denorm}), std::log(2.0), 1e-12);
}

TEST(SoftmaxTest, NormalizesAndOrders) {
  std::vector<double> xs = {1.0, 2.0, 3.0};
  SoftmaxInPlace(&xs);
  double sum = xs[0] + xs[1] + xs[2];
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_LT(xs[0], xs[1]);
  EXPECT_LT(xs[1], xs[2]);
}

TEST(SoftmaxTest, UniformForEqualScores) {
  std::vector<double> xs = {5.0, 5.0, 5.0, 5.0};
  SoftmaxInPlace(&xs);
  for (double x : xs) EXPECT_NEAR(x, 0.25, 1e-12);
}

TEST(BinomialTest, CoefficientMatchesSmallCases) {
  EXPECT_NEAR(std::exp(LogBinomialCoefficient(5, 2)), 10.0, 1e-9);
  EXPECT_NEAR(std::exp(LogBinomialCoefficient(10, 0)), 1.0, 1e-9);
  EXPECT_NEAR(std::exp(LogBinomialCoefficient(10, 10)), 1.0, 1e-9);
  EXPECT_NEAR(std::exp(LogBinomialCoefficient(52, 5)), 2598960.0, 1e-3);
}

TEST(BinomialTest, PmfSumsToOne) {
  for (double p : {0.1, 0.5, 0.9}) {
    double sum = 0.0;
    for (int k = 0; k <= 20; ++k) sum += BinomialPmf(20, k, p);
    EXPECT_NEAR(sum, 1.0, 1e-10);
  }
}

TEST(BinomialTest, PmfEdgeCases) {
  EXPECT_DOUBLE_EQ(BinomialPmf(10, -1, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(10, 11, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(10, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(10, 10, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(10, 3, 0.0), 0.0);
}

TEST(BinomialTest, CdfMatchesExample8) {
  // Example 8 of the paper: P[X > 5] for X ~ Binomial(10, 0.7) = 0.8497.
  double pe = 1.0 - BinomialCdf(10, 5, 0.7);
  EXPECT_NEAR(pe, 0.8497, 5e-4);
}

TEST(BinomialTest, CdfMonotoneInK) {
  double prev = -1.0;
  for (int k = 0; k <= 15; ++k) {
    double c = BinomialCdf(15, k, 0.37);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_NEAR(prev, 1.0, 1e-12);
}

TEST(EntropyTest, BinaryEntropyProperties) {
  EXPECT_DOUBLE_EQ(BinaryEntropyBits(0.0), 0.0);
  EXPECT_DOUBLE_EQ(BinaryEntropyBits(1.0), 0.0);
  EXPECT_NEAR(BinaryEntropyBits(0.5), 1.0, 1e-12);
  // Symmetric.
  EXPECT_NEAR(BinaryEntropyBits(0.3), BinaryEntropyBits(0.7), 1e-12);
  // Example 8: H(0.8497) = 0.611.
  EXPECT_NEAR(BinaryEntropyBits(0.8497), 0.611, 1e-3);
}

TEST(KlTest, BernoulliKlProperties) {
  EXPECT_NEAR(KlBernoulli(0.3, 0.3), 0.0, 1e-12);
  EXPECT_GT(KlBernoulli(0.9, 0.5), 0.0);
  // Finite even at degenerate q.
  EXPECT_TRUE(std::isfinite(KlBernoulli(0.5, 0.0)));
  EXPECT_TRUE(std::isfinite(KlBernoulli(0.5, 1.0)));
  EXPECT_TRUE(std::isfinite(KlBernoulli(0.0, 0.5)));
  EXPECT_TRUE(std::isfinite(KlBernoulli(1.0, 0.5)));
}

TEST(GammaTest, RegularizedGammaPAgainstKnownValues) {
  // P(1, x) = 1 - exp(-x).
  for (double x : {0.1, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(RegularizedGammaP(1.0, x), 1.0 - std::exp(-x), 1e-10);
  }
  // P(0.5, x) = erf(sqrt(x)).
  for (double x : {0.25, 1.0, 4.0}) {
    EXPECT_NEAR(RegularizedGammaP(0.5, x), std::erf(std::sqrt(x)), 1e-10);
  }
  EXPECT_DOUBLE_EQ(RegularizedGammaP(2.0, 0.0), 0.0);
}

TEST(ChiSquaredTest, CdfKnownValues) {
  // chi2 with 1 dof at its 95% quantile 3.841.
  EXPECT_NEAR(ChiSquaredCdf(3.841, 1.0), 0.95, 1e-3);
  // chi2 with 10 dof: median ~9.342.
  EXPECT_NEAR(ChiSquaredCdf(9.342, 10.0), 0.5, 1e-3);
}

TEST(ChiSquaredTest, QuantileInvertsCdf) {
  for (double k : {1.0, 2.0, 5.0, 30.0, 200.0}) {
    for (double prob : {0.025, 0.25, 0.5, 0.9, 0.975}) {
      double q = ChiSquaredQuantile(prob, k);
      EXPECT_NEAR(ChiSquaredCdf(q, k), prob, 1e-8)
          << "k=" << k << " prob=" << prob;
    }
  }
}

TEST(ChiSquaredTest, QuantileMonotoneInDof) {
  // Long-tail shrinkage used by CATD: fewer claims -> smaller chi2(0.025).
  double prev = 0.0;
  for (double k : {1.0, 5.0, 20.0, 100.0}) {
    double q = ChiSquaredQuantile(0.025, k);
    EXPECT_GT(q, prev);
    prev = q;
  }
}

TEST(StatsTest, MeanVarianceStdDev) {
  std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(Mean(xs), 5.0, 1e-12);
  EXPECT_NEAR(Variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(StdDev(xs), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({1.0}), 0.0);
}

TEST(VectorOpsTest, Norms) {
  std::vector<double> a = {1.0, -2.0, 3.0};
  EXPECT_DOUBLE_EQ(L2Norm({3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(L1Norm(a), 6.0);
}

/// Property sweep: BinomialCdf agrees with a direct summation of the PMF
/// across a grid of (n, p).
class BinomialCdfSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(BinomialCdfSweep, CdfEqualsPmfPrefixSum) {
  auto [n, p] = GetParam();
  double prefix = 0.0;
  for (int k = 0; k < n; ++k) {
    prefix += BinomialPmf(n, k, p);
    EXPECT_NEAR(BinomialCdf(n, k, p), std::min(prefix, 1.0), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BinomialCdfSweep,
    ::testing::Combine(::testing::Values(1, 2, 5, 10, 34, 100),
                       ::testing::Values(0.05, 0.3, 0.5, 0.7, 0.95)));

/// Property sweep: KL divergence is non-negative and zero iff p == q.
class KlSweep : public ::testing::TestWithParam<std::tuple<double, double>> {
};

TEST_P(KlSweep, NonNegative) {
  auto [p, q] = GetParam();
  double kl = KlBernoulli(p, q);
  EXPECT_GE(kl, -1e-12);
  if (std::fabs(p - q) > 1e-9) {
    EXPECT_GT(kl, 0.0);
  } else {
    EXPECT_NEAR(kl, 0.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KlSweep,
    ::testing::Combine(::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9),
                       ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9)));

}  // namespace
}  // namespace slimfast

#include "util/math.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "simd/simd.h"
#include "util/logging.h"

namespace slimfast {

// Sigmoid, LogSumExp and SoftmaxInPlace route through src/simd so
// every caller — per-row model scores, batched E-step pipelines,
// baselines — computes the exact same bits regardless of vector width or
// thread count. SoftmaxInPlace dispatches to the batched kernel (it is
// the single-row case of simd::SoftmaxRows); LogSumExp's reduction uses
// the lane-stable fold described in simd/simd.h.

double Sigmoid(double x) { return simd::SigmoidElem(x); }

double Logit(double p, double eps) {
  p = Clamp(p, eps, 1.0 - eps);
  return std::log(p / (1.0 - p));
}

double Clamp(double x, double lo, double hi) {
  return std::min(hi, std::max(lo, x));
}

double LogSumExp(const std::vector<double>& xs) {
  if (xs.empty()) return -std::numeric_limits<double>::infinity();
  const int64_t n = static_cast<int64_t>(xs.size());
  const double max_x = simd::MaxVal(xs.data(), n);
  if (!std::isfinite(max_x)) return max_x;
  const double sum =
      simd::LaneStableSum(n, [&](int64_t i) { return simd::ExpElem(xs[i] - max_x); });
  return max_x + simd::LogElem(sum);
}

void SoftmaxInPlace(std::vector<double>* xs) {
  if (xs->empty()) return;
  const int64_t begins[2] = {0, static_cast<int64_t>(xs->size())};
  simd::SoftmaxRows(begins, 1, 0, xs->data());
}

namespace {

// lgamma(3) writes its sign to the process-global `signgam`, which is a
// data race once the serving layer relearns shards in parallel (every
// relearn's optimizer decision walks the binomial tail). The reentrant
// lgamma_r returns the identical value without the global; all inputs
// here are >= 1, where the gamma function is positive anyway.
double ThreadSafeLogGamma(double x) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

}  // namespace

double LogBinomialCoefficient(int64_t n, int64_t k) {
  SLIMFAST_DCHECK(n >= 0 && k >= 0 && k <= n,
                  "LogBinomialCoefficient requires 0 <= k <= n");
  return ThreadSafeLogGamma(static_cast<double>(n) + 1.0) -
         ThreadSafeLogGamma(static_cast<double>(k) + 1.0) -
         ThreadSafeLogGamma(static_cast<double>(n - k) + 1.0);
}

double BinomialPmf(int64_t n, int64_t k, double p) {
  SLIMFAST_DCHECK(p >= 0.0 && p <= 1.0, "BinomialPmf requires p in [0,1]");
  if (k < 0 || k > n) return 0.0;
  if (p == 0.0) return k == 0 ? 1.0 : 0.0;
  if (p == 1.0) return k == n ? 1.0 : 0.0;
  double log_pmf = LogBinomialCoefficient(n, k) +
                   static_cast<double>(k) * std::log(p) +
                   static_cast<double>(n - k) * std::log1p(-p);
  return std::exp(log_pmf);
}

double BinomialCdf(int64_t n, int64_t k, double p) {
  if (k < 0) return 0.0;
  if (k >= n) return 1.0;
  double cdf = 0.0;
  for (int64_t i = 0; i <= k; ++i) cdf += BinomialPmf(n, i, p);
  return Clamp(cdf, 0.0, 1.0);
}

double BinaryEntropyBits(double p) {
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

double KlBernoulli(double p, double q, double eps) {
  p = Clamp(p, 0.0, 1.0);
  q = Clamp(q, eps, 1.0 - eps);
  double kl = 0.0;
  if (p > 0.0) kl += p * std::log(p / q);
  if (p < 1.0) kl += (1.0 - p) * std::log((1.0 - p) / (1.0 - q));
  return kl;
}

namespace {

// Series representation of P(a, x), valid (fast-converging) for x < a + 1.
double GammaPSeries(double a, double x) {
  const int kMaxIter = 500;
  const double kEps = 1e-14;
  double term = 1.0 / a;
  double sum = term;
  double ap = a;
  for (int i = 0; i < kMaxIter; ++i) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * kEps) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

// Continued-fraction representation of Q(a, x) = 1 - P(a, x), valid for
// x >= a + 1 (modified Lentz's method).
double GammaQContinuedFraction(double a, double x) {
  const int kMaxIter = 500;
  const double kEps = 1e-14;
  const double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIter; ++i) {
    double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < kEps) break;
  }
  return h * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

}  // namespace

double RegularizedGammaP(double a, double x) {
  SLIMFAST_DCHECK(a > 0.0, "RegularizedGammaP requires a > 0");
  SLIMFAST_DCHECK(x >= 0.0, "RegularizedGammaP requires x >= 0");
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return Clamp(GammaPSeries(a, x), 0.0, 1.0);
  return Clamp(1.0 - GammaQContinuedFraction(a, x), 0.0, 1.0);
}

double ChiSquaredCdf(double x, double k) {
  SLIMFAST_DCHECK(k > 0.0, "ChiSquaredCdf requires k > 0");
  if (x <= 0.0) return 0.0;
  return RegularizedGammaP(k / 2.0, x / 2.0);
}

double ChiSquaredQuantile(double prob, double k) {
  SLIMFAST_DCHECK(prob > 0.0 && prob < 1.0,
                  "ChiSquaredQuantile requires prob in (0,1)");
  SLIMFAST_DCHECK(k > 0.0, "ChiSquaredQuantile requires k > 0");
  // Bracket the root: the chi-squared mean is k and the tails decay fast.
  double lo = 0.0;
  double hi = std::max(1.0, k);
  while (ChiSquaredCdf(hi, k) < prob) {
    hi *= 2.0;
    if (hi > 1e12) break;
  }
  // Bisection; 200 iterations gives ~1e-12 relative precision on this range.
  for (int i = 0; i < 200; ++i) {
    double mid = 0.5 * (lo + hi);
    if (ChiSquaredCdf(mid, k) < prob) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-12 * std::max(1.0, hi)) break;
  }
  return 0.5 * (lo + hi);
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double mean = Mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  return ss / static_cast<double>(xs.size() - 1);
}

double StdDev(const std::vector<double>& xs) { return std::sqrt(Variance(xs)); }

double L2Norm(const std::vector<double>& xs) {
  double ss = 0.0;
  for (double x : xs) ss += x * x;
  return std::sqrt(ss);
}

double L1Norm(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) sum += std::fabs(x);
  return sum;
}

}  // namespace slimfast

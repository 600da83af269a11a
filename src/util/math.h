#ifndef SLIMFAST_UTIL_MATH_H_
#define SLIMFAST_UTIL_MATH_H_

#include <cstdint>
#include <vector>

namespace slimfast {

/// Numerical substrate for the fusion models. All functions are pure and
/// numerically hardened (clamping, log-space computation) because the
/// learners routinely evaluate them at extreme arguments (e.g. accuracies
/// saturating toward 0 or 1 during SGD).

/// Logistic sigmoid 1 / (1 + exp(-x)), stable for large |x|.
double Sigmoid(double x);

/// Inverse sigmoid log(p / (1-p)); `p` is clamped to (eps, 1-eps).
double Logit(double p, double eps = 1e-12);

/// Clamps `x` into [lo, hi].
double Clamp(double x, double lo, double hi);

/// log(sum_i exp(x_i)) computed stably; returns -inf for empty input.
double LogSumExp(const std::vector<double>& xs);

/// Normalizes exp(x_i) into a probability vector in place (softmax).
void SoftmaxInPlace(std::vector<double>* xs);

/// Natural log of the binomial coefficient C(n, k).
double LogBinomialCoefficient(int64_t n, int64_t k);

/// Binomial PMF P[X = k] for X ~ Binomial(n, p), computed in log space.
double BinomialPmf(int64_t n, int64_t k, double p);

/// Binomial CDF P[X <= k] for X ~ Binomial(n, p).
double BinomialCdf(int64_t n, int64_t k, double p);

/// Shannon entropy of a Bernoulli(p) in bits: -p log2 p - (1-p) log2 (1-p).
/// Returns 0 at p in {0, 1}.
double BinaryEntropyBits(double p);

/// KL divergence KL(Bernoulli(p) || Bernoulli(q)) in nats, with q clamped
/// away from {0, 1} to keep the value finite.
double KlBernoulli(double p, double q, double eps = 1e-12);

/// Regularized lower incomplete gamma function P(a, x), a > 0, x >= 0.
/// Series expansion for x < a+1, continued fraction otherwise.
double RegularizedGammaP(double a, double x);

/// Chi-squared CDF with `k` degrees of freedom.
double ChiSquaredCdf(double x, double k);

/// Chi-squared inverse CDF (quantile) with `k` degrees of freedom, solved
/// by bisection + Newton refinement on RegularizedGammaP. Requires
/// 0 < prob < 1.
double ChiSquaredQuantile(double prob, double k);

/// Arithmetic mean; returns 0 for empty input.
double Mean(const std::vector<double>& xs);

/// Unbiased sample variance; returns 0 for fewer than two elements.
double Variance(const std::vector<double>& xs);

/// Sample standard deviation.
double StdDev(const std::vector<double>& xs);

/// Euclidean (L2) norm.
double L2Norm(const std::vector<double>& xs);

/// Sum of absolute values (L1 norm).
double L1Norm(const std::vector<double>& xs);

}  // namespace slimfast

#endif  // SLIMFAST_UTIL_MATH_H_

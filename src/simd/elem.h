#ifndef SLIMFAST_SIMD_ELEM_H_
#define SLIMFAST_SIMD_ELEM_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace slimfast {
namespace simd {

/// Elementwise transcendental cores shared by every batched kernel and by
/// the scalar call sites in util/math. Each function is straight-line
/// IEEE arithmetic — clamps and specials are ternary selects, range
/// reduction uses the magic-shifter trick instead of lrint, and 2^k
/// scaling is bit assembly — so the compiler can vectorize the enclosing
/// loop without changing any per-element result. Compiled with
/// -ffp-contract=off everywhere (see the root CMakeLists), the same
/// element produces the same bits at every vector width, which is the
/// foundation of the SIMD == scalar determinism contract.

/// exp(x) with ~1e-14 relative accuracy. Cephes-style: k = round(x/ln2)
/// via the 1.5·2^52 magic shifter, degree-11 Taylor on the reduced
/// argument, and a two-stage 2^k bit-scale so subnormal results round
/// through an intermediate instead of flushing. Saturates exactly like
/// IEEE exp: +inf above the overflow threshold (the high clamp sits above
/// ln(DBL_MAX), so the scale overflows to inf), +0.0 below the underflow
/// threshold, NaN propagates.
inline double ExpElem(double x) {
  const double kLo = -746.0;  // exp(kLo) underflows to +0.0
  const double kHi = 710.0;   // exp(kHi) overflows to +inf (ln(DBL_MAX)≈709.78)
  double cx = x < kLo ? kLo : (x > kHi ? kHi : x);  // NaN falls through as NaN
  const double kInvLn2 = 1.4426950408889634074;
  const double kLn2Hi = 6.93147180369123816490e-01;
  const double kLn2Lo = 1.90821492927058770002e-10;
  const double kShift = 6755399441055744.0;  // 1.5 * 2^52
  double t = cx * kInvLn2 + kShift;
  double kd = t - kShift;
  int64_t ki;
  std::memcpy(&ki, &t, 8);
  ki = (ki << 13) >> 13;  // low 51 bits, sign-extended
  double r = cx - kd * kLn2Hi;
  r -= kd * kLn2Lo;
  // Degree-11 Taylor on [-ln2/2, ln2/2].
  double p = 1.0 / 39916800.0;
  p = p * r + 1.0 / 3628800.0;
  p = p * r + 1.0 / 362880.0;
  p = p * r + 1.0 / 40320.0;
  p = p * r + 1.0 / 5040.0;
  p = p * r + 1.0 / 720.0;
  p = p * r + 1.0 / 120.0;
  p = p * r + 1.0 / 24.0;
  p = p * r + 1.0 / 6.0;
  p = p * r + 0.5;
  p = p * r + 1.0;
  p = p * r + 1.0;
  // Two-stage 2^k scale: splitting k keeps each factor a normal double, so
  // results near the subnormal range round once through a representable
  // intermediate and overflow goes to +inf instead of a garbage exponent.
  int64_t k1 = ki / 2;
  int64_t k2 = ki - k1;
  int64_t b1 = (k1 + 1023) << 52;
  int64_t b2 = (k2 + 1023) << 52;
  double s1, s2;
  std::memcpy(&s1, &b1, 8);
  std::memcpy(&s2, &b2, 8);
  return p * s1 * s2;
}

/// log(x) with ~1e-15 relative accuracy. Exponent/mantissa bit
/// decomposition (subnormals pre-scaled by 2^54), mantissa normalized to
/// [√2/2, √2), atanh series in t = (m-1)/(m+1). Specials via trailing
/// selects: log(±0) = -inf, log(x<0) = NaN, log(+inf) = +inf, NaN
/// propagates.
inline double LogElem(double x) {
  const double kMinNormal = 2.2250738585072014e-308;  // 2^-1022
  const bool subnormal = x > 0.0 && x < kMinNormal;
  const double xs = subnormal ? x * 18014398509481984.0 : x;  // * 2^54
  int64_t bits;
  std::memcpy(&bits, &xs, 8);
  const int64_t biased = (bits >> 52) & 0x7FF;
  const int64_t mbits = (bits & 0xFFFFFFFFFFFFFLL) | 0x3FF0000000000000LL;
  double m;
  std::memcpy(&m, &mbits, 8);  // mantissa in [1, 2)
  double e = static_cast<double>(biased - 1023 - (subnormal ? 54 : 0));
  const double kSqrt2 = 1.4142135623730951;
  const double madj = m >= kSqrt2 ? 0.5 * m : m;
  const double eadj = m >= kSqrt2 ? e + 1.0 : e;
  const double t = (madj - 1.0) / (madj + 1.0);
  const double u = t * t;
  // log(madj) = 2t * (1 + u/3 + u²/5 + ... + u⁹/19); |t| ≤ 0.1716 so the
  // truncated tail is below 1e-16 relative.
  double p = 1.0 / 19.0;
  p = p * u + 1.0 / 17.0;
  p = p * u + 1.0 / 15.0;
  p = p * u + 1.0 / 13.0;
  p = p * u + 1.0 / 11.0;
  p = p * u + 1.0 / 9.0;
  p = p * u + 1.0 / 7.0;
  p = p * u + 1.0 / 5.0;
  p = p * u + 1.0 / 3.0;
  p = p * u + 1.0;
  const double lm = 2.0 * t * p;
  const double kLn2Hi = 6.93147180369123816490e-01;
  const double kLn2Lo = 1.90821492927058770002e-10;
  double r = eadj * kLn2Hi + (lm + eadj * kLn2Lo);
  r = x == 0.0 ? -std::numeric_limits<double>::infinity() : r;
  r = x < 0.0 ? std::numeric_limits<double>::quiet_NaN() : r;
  r = x == std::numeric_limits<double>::infinity()
          ? std::numeric_limits<double>::infinity()
          : r;
  r = x != x ? x : r;
  return r;
}

/// Logistic sigmoid 1 / (1 + exp(-x)), branchless and stable for large
/// |x|: the exponential is always evaluated at -|x| ≤ 0 (never
/// overflows), mirroring the two-branch form of the legacy
/// slimfast::Sigmoid. sigmoid(0) = 0.5 exactly, sigmoid(±inf) = {1, 0},
/// NaN propagates.
inline double SigmoidElem(double x) {
  const double e = ExpElem(-std::fabs(x));
  const double num = x >= 0.0 ? 1.0 : e;  // NaN: num = e = NaN
  return num / (1.0 + e);
}

/// Softplus log(1 + exp(x)), evaluated as max(x, 0) + log1p(exp(-|x|)) so
/// neither factor overflows. The log1p uses a short series when exp(-|x|)
/// is tiny (where log(1+e) would round to 0 and lose all relative
/// accuracy). Log1pExp(-inf) = 0, Log1pExp(+inf) = +inf, NaN propagates.
inline double Log1pExpElem(double x) {
  const double e = ExpElem(-std::fabs(x));
  // log(1+e) on e in [0,1] via the atanh series: with t = e/(2+e) in
  // [0, 1/3],  log(1+e) = 2*atanh(t) = 2t*(1 + t²/3 + t⁴/5 + ...).
  // t² <= 1/9, so truncating after t³³ keeps the relative error below
  // one ulp over the whole range, with no mantissa decomposition — the
  // straight-line polynomial vectorizes where a full LogElem would not
  // pay for itself on this narrow domain. e = 0 gives exactly 0; NaN
  // propagates through t.
  const double t = e / (2.0 + e);
  const double s = t * t;
  double l = 2.0 / 33.0;
  l = 2.0 / 31.0 + s * l;
  l = 2.0 / 29.0 + s * l;
  l = 2.0 / 27.0 + s * l;
  l = 2.0 / 25.0 + s * l;
  l = 2.0 / 23.0 + s * l;
  l = 2.0 / 21.0 + s * l;
  l = 2.0 / 19.0 + s * l;
  l = 2.0 / 17.0 + s * l;
  l = 2.0 / 15.0 + s * l;
  l = 2.0 / 13.0 + s * l;
  l = 2.0 / 11.0 + s * l;
  l = 2.0 / 9.0 + s * l;
  l = 2.0 / 7.0 + s * l;
  l = 2.0 / 5.0 + s * l;
  l = 2.0 / 3.0 + s * l;
  l = 2.0 + s * l;
  l = t * l;
  const double m = x > 0.0 ? x : 0.0;  // NaN: m = 0, l = NaN
  return m + l;
}

}  // namespace simd
}  // namespace slimfast

#endif  // SLIMFAST_SIMD_ELEM_H_

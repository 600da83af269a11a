#ifndef SLIMFAST_SIMD_KERNELS_IMPL_H_
#define SLIMFAST_SIMD_KERNELS_IMPL_H_

#include <cmath>
#include <cstdint>

#include "simd/elem.h"
#include "simd/simd.h"

namespace slimfast {
namespace simd {
namespace internal {

/// Width-W instantiations of every batched kernel. The scalar table is
/// Kernels<1> compiled with vectorization disabled; the wide table is
/// Kernels<kWideWidth> compiled with the best -march the toolchain
/// accepts. Both instantiate THIS header, so the per-element operation
/// sequence — and therefore every output bit — is identical by
/// construction; W only changes how the loop is blocked for the
/// vectorizer. Reductions never depend on W at all: they always fold
/// kAccLanes accumulators in fixed order (see LaneSum), which is what
/// makes results stable across SIMD width as well as thread count.
template <int W>
struct Kernels {
  // ---- Elementwise maps: W-blocked main loop + scalar tail. The inner
  // j-loop has a compile-time trip count so the vectorizer turns each
  // block into straight vector code at width W.

  static void BatchExp(const double* x, double* y, int64_t n) {
    int64_t i = 0;
    for (; i + W <= n; i += W) {
      for (int j = 0; j < W; ++j) y[i + j] = ExpElem(x[i + j]);
    }
    for (; i < n; ++i) y[i] = ExpElem(x[i]);
  }

  static void BatchLog(const double* x, double* y, int64_t n) {
    int64_t i = 0;
    for (; i + W <= n; i += W) {
      for (int j = 0; j < W; ++j) y[i + j] = LogElem(x[i + j]);
    }
    for (; i < n; ++i) y[i] = LogElem(x[i]);
  }

  static void BatchSigmoid(const double* x, double* y, int64_t n) {
    int64_t i = 0;
    for (; i + W <= n; i += W) {
      for (int j = 0; j < W; ++j) y[i + j] = SigmoidElem(x[i + j]);
    }
    for (; i < n; ++i) y[i] = SigmoidElem(x[i]);
  }

  // y[i] = log(1 + exp(-x[i])): the binary cross-entropy "softplus of the
  // negated logit" that the accuracy-loss objective sums per source.
  static void BatchSoftplusNeg(const double* x, double* y, int64_t n) {
    int64_t i = 0;
    for (; i + W <= n; i += W) {
      for (int j = 0; j < W; ++j) y[i + j] = Log1pExpElem(-x[i + j]);
    }
    for (; i < n; ++i) y[i] = Log1pExpElem(-x[i]);
  }

  // prod[i] = coeff[i] * w[param[i]] — the flat score-product pass over a
  // CSR term range. The gather is memory-bound; it lives here so both
  // tables execute the identical multiply.
  static void TermProducts(const double* coeff, const int32_t* param,
                           const double* w, double* prod, int64_t n) {
    int64_t i = 0;
    for (; i + W <= n; i += W) {
      for (int j = 0; j < W; ++j)
        prod[i + j] = coeff[i + j] * w[param[i + j]];
    }
    for (; i < n; ++i) prod[i] = coeff[i] * w[param[i]];
  }

  // ---- Lane-stable reduction core. Elements fold into kAccLanes
  // accumulators by position (element i -> lane i % kAccLanes), then the
  // lanes fold in fixed order — the result depends only on the data, not
  // on W or thread count. Ranges of <= kAccLanes elements take a plain
  // sequential sum, which is bit-identical to the padded fold (the lanes
  // a short range skips stay +0.0, and trailing +0.0 adds don't change
  // any bits); the fast path matters because CSR candidate ranges are
  // typically 2-8 terms. simd_kernels_test asserts this equivalence.
  static double LaneSum(const double* x, int64_t n) {
    if (n <= kAccLanes) {
      double s = 0.0;
      for (int64_t i = 0; i < n; ++i) s += x[i];
      return s;
    }
    double acc[kAccLanes] = {0.0};
    int64_t i = 0;
    for (; i + kAccLanes <= n; i += kAccLanes) {
      for (int j = 0; j < kAccLanes; ++j) acc[j] += x[i + j];
    }
    for (int j = 0; i + j < n; ++j) acc[j] += x[i + j];
    double s = 0.0;
    for (int j = 0; j < kAccLanes; ++j) s += acc[j];
    return s;
  }

  // max over n >= 1 elements; a NaN that is not first is skipped (x > m
  // is false), matching the select the vector code blends with.
  static double MaxVal(const double* x, int64_t n) {
    double m = x[0];
    for (int64_t i = 1; i < n; ++i) m = x[i] > m ? x[i] : m;
    return m;
  }

  // out[r] = (init ? init[r] : 0) + LaneSum(values over range r), where
  // range r is [begins[r] - base, begins[r+1] - base). This is the
  // per-candidate score fold (init = candidate offsets) and the
  // accuracy loss's per-source sigma fold (init = nullptr).
  static void FoldRanges(const int64_t* begins, int64_t nranges,
                         int64_t base, const double* values,
                         const double* init, double* out) {
    for (int64_t r = 0; r < nranges; ++r) {
      const int64_t b = begins[r] - base;
      const int64_t n = begins[r + 1] - begins[r];
      const double s = LaneSum(values + b, n);
      out[r] = init ? init[r] + s : s;
    }
  }

  // In-place numerically-stable softmax over each row of a flat buffer:
  // per-row max/subtract, ONE batched exp over the whole buffer, per-row
  // lane-stable sum, multiply by the reciprocal. Empty rows are skipped.
  // This is the only softmax in the codebase — util::SoftmaxInPlace is a
  // single-row call — so every posterior shares these exact bits.
  static void SoftmaxRows(const int64_t* begins, int64_t nrows,
                          int64_t base, double* buf) {
    for (int64_t r = 0; r < nrows; ++r) {
      const int64_t b = begins[r] - base;
      const int64_t e = begins[r + 1] - base;
      if (e <= b) continue;
      const double m = MaxVal(buf + b, e - b);
      for (int64_t c = b; c < e; ++c) buf[c] -= m;
    }
    BatchExp(buf, buf, begins[nrows] - base);
    for (int64_t r = 0; r < nrows; ++r) {
      const int64_t b = begins[r] - base;
      const int64_t e = begins[r + 1] - base;
      if (e <= b) continue;
      const double inv = 1.0 / LaneSum(buf + b, e - b);
      for (int64_t c = b; c < e; ++c) buf[c] *= inv;
    }
  }
};

template <int W>
constexpr KernelTable MakeTable() {
  return KernelTable{
      &Kernels<W>::BatchExp,     &Kernels<W>::BatchLog,
      &Kernels<W>::BatchSigmoid, &Kernels<W>::BatchSoftplusNeg,
      &Kernels<W>::TermProducts, &Kernels<W>::FoldRanges,
      &Kernels<W>::SoftmaxRows,  &Kernels<W>::MaxVal,
  };
}

}  // namespace internal
}  // namespace simd
}  // namespace slimfast

#endif  // SLIMFAST_SIMD_KERNELS_IMPL_H_

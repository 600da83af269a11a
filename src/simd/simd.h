#ifndef SLIMFAST_SIMD_SIMD_H_
#define SLIMFAST_SIMD_SIMD_H_

#include <atomic>
#include <cstdint>

#include "simd/elem.h"

namespace slimfast {
namespace simd {

/// Portable fixed-width SIMD kernels for the EM/ERM hot paths, with a
/// lane-stable determinism contract:
///
///  * Every kernel is a width-W template instantiation of the same code
///    (simd/kernels_impl.h). The scalar table is W=1 compiled with
///    vectorization disabled; the wide table is W=kWideWidth compiled
///    with the native ISA. Elementwise per-element operation sequences
///    are identical, reductions always fold kAccLanes accumulators in
///    fixed order, and -ffp-contract=off forbids FMA contraction — so
///    scalar and SIMD outputs are bit-identical, asserted (not
///    tolerated) by simd_kernels_test and the bench cross-checks.
///
///  * Kill switches mirror the obs layer's zero-cost-when-off pattern:
///    -DSLIMFAST_SIMD=OFF removes the wide table at compile time
///    (WideEnabled() constant-folds to false and the wide TU is not
///    built); SLIMFAST_SIMD=0 in the environment disables it at process
///    start. Either way every call falls back to the identical-bits
///    scalar table, so turning SIMD off never changes results.

/// Number of independent accumulators in every lane-stable reduction,
/// fixed regardless of vector width W: element i folds into lane
/// i % kAccLanes, lanes fold in ascending order. Ranges of <= kAccLanes
/// elements use a plain sequential sum (bit-identical to the padded
/// fold; see kernels_impl.h).
inline constexpr int kAccLanes = 8;

/// Vector width (doubles per block) the wide table is instantiated at.
inline constexpr int kWideWidth = 8;

#ifdef SLIMFAST_SIMD_DISABLED
inline constexpr bool kWideCompiledIn = false;
#else
inline constexpr bool kWideCompiledIn = true;
#endif

namespace internal {

struct KernelTable {
  void (*batch_exp)(const double* x, double* y, int64_t n);
  void (*batch_log)(const double* x, double* y, int64_t n);
  void (*batch_sigmoid)(const double* x, double* y, int64_t n);
  void (*batch_softplus_neg)(const double* x, double* y, int64_t n);
  void (*term_products)(const double* coeff, const int32_t* param,
                        const double* w, double* prod, int64_t n);
  void (*fold_ranges)(const int64_t* begins, int64_t nranges, int64_t base,
                      const double* values, const double* init, double* out);
  void (*softmax_rows)(const int64_t* begins, int64_t nrows, int64_t base,
                       double* buf);
  double (*max_val)(const double* x, int64_t n);
};

extern const KernelTable kScalarTable;  // kernels_scalar.cc, always present
#ifndef SLIMFAST_SIMD_DISABLED
extern const KernelTable kWideTable;  // kernels_wide.cc
extern const int kWideIsaLevel;       // 0=baseline, 1=AVX, 2=AVX2, 3=AVX-512
#endif

// Lazily resolved active table: scalar unless the wide table is compiled
// in, the host CPU supports the ISA it was built for, and neither kill
// switch is thrown. Resolution is a relaxed atomic pointer publish — the
// tables are immutable statics, so any racing resolver writes the same
// value.
const KernelTable& Active();

}  // namespace internal

/// True when calls will dispatch to the wide (vectorized) table.
bool WideEnabled();

/// The block width of the active table: kWideWidth or 1.
int ActiveWidth();

/// ISA level the wide table was compiled for (0 when disabled at compile
/// time): 0=baseline, 1=AVX, 2=AVX2, 3=AVX-512.
int WideIsaLevel();

/// Test/bench hook: force the scalar (false) or wide (true) table,
/// bypassing the SLIMFAST_SIMD environment switch. Enabling has no
/// effect when the wide table is compiled out or the CPU lacks the ISA.
/// Not thread-safe against concurrent kernel calls; call between runs.
void SetWideEnabledForTest(bool enabled);

// ---- Dispatched kernels. See kernels_impl.h for exact semantics.

inline void BatchExp(const double* x, double* y, int64_t n) {
  internal::Active().batch_exp(x, y, n);
}
inline void BatchLog(const double* x, double* y, int64_t n) {
  internal::Active().batch_log(x, y, n);
}
inline void BatchSigmoid(const double* x, double* y, int64_t n) {
  internal::Active().batch_sigmoid(x, y, n);
}
/// y[i] = log(1 + exp(-x[i]))
inline void BatchSoftplusNeg(const double* x, double* y, int64_t n) {
  internal::Active().batch_softplus_neg(x, y, n);
}
/// prod[i] = coeff[i] * w[param[i]]
inline void TermProducts(const double* coeff, const int32_t* param,
                         const double* w, double* prod, int64_t n) {
  internal::Active().term_products(coeff, param, w, prod, n);
}
/// out[r] = (init ? init[r] : 0) + lane-stable sum of values over
/// [begins[r]-base, begins[r+1]-base)
inline void FoldRanges(const int64_t* begins, int64_t nranges, int64_t base,
                       const double* values, const double* init,
                       double* out) {
  internal::Active().fold_ranges(begins, nranges, base, values, init, out);
}
/// In-place stable softmax over each row of a flat buffer.
inline void SoftmaxRows(const int64_t* begins, int64_t nrows, int64_t base,
                        double* buf) {
  internal::Active().softmax_rows(begins, nrows, base, buf);
}
/// Max over n >= 1 elements (select semantics: a non-leading NaN loses).
inline double MaxVal(const double* x, int64_t n) {
  return internal::Active().max_val(x, n);
}
/// Lane-stable sum of value_at(0..n-1) for call sites that accumulate
/// one range at a time (model scores, sigma dots) rather than through a
/// materialized product buffer. Produces exactly the bits of the kernels'
/// LaneSum over the same values, so the per-row score path
/// (SlimFastModel::ValueScore) stays bitwise interchangeable with the
/// batched TermProducts + FoldRanges pipeline.
template <typename F>
inline double LaneStableSum(int64_t n, F&& value_at) {
  if (n <= kAccLanes) {
    double s = 0.0;
    for (int64_t i = 0; i < n; ++i) s += value_at(i);
    return s;
  }
  double acc[kAccLanes] = {0.0};
  int64_t i = 0;
  for (; i + kAccLanes <= n; i += kAccLanes) {
    for (int j = 0; j < kAccLanes; ++j) acc[j] += value_at(i + j);
  }
  for (int j = 0; i + j < n; ++j) acc[j] += value_at(i + j);
  double s = 0.0;
  for (int j = 0; j < kAccLanes; ++j) s += acc[j];
  return s;
}

}  // namespace simd
}  // namespace slimfast

#endif  // SLIMFAST_SIMD_SIMD_H_

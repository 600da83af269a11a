#ifndef SLIMFAST_UTIL_CSR_H_
#define SLIMFAST_UTIL_CSR_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace slimfast {

/// Appends `src[begin, end)` to `out` — one block copy of a run of a CSR
/// payload column. Shared by the store splice and the delta compiler.
template <typename T>
void AppendRange(const std::vector<T>& src, int64_t begin, int64_t end,
                 std::vector<T>* out) {
  out->insert(out->end(), src.begin() + begin, src.begin() + end);
}

/// Appends `src[begin, end)` to `out` with `shift` added to each entry —
/// one bulk pass that rebases a run of CSR offsets.
inline void AppendShifted(const std::vector<int64_t>& src, int64_t begin,
                          int64_t end, int64_t shift,
                          std::vector<int64_t>* out) {
  const size_t at = out->size();
  out->resize(at + static_cast<size_t>(end - begin));
  std::transform(src.begin() + begin, src.begin() + end,
                 out->begin() + static_cast<int64_t>(at),
                 [shift](int64_t offset) { return offset + shift; });
}

}  // namespace slimfast

#endif  // SLIMFAST_UTIL_CSR_H_

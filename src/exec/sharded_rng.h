#ifndef SLIMFAST_EXEC_SHARDED_RNG_H_
#define SLIMFAST_EXEC_SHARDED_RNG_H_

#include <cstdint>

#include "util/hash.h"

namespace slimfast {

/// Seed of random stream `index` derived from one base `seed`.
///
/// A SplitMix64 mix of (seed, index), so streams are statistically
/// independent and a stream's seed depends only on (seed, index) — never on
/// how many streams exist or which thread draws from it. Randomized parallel
/// stages (synthetic replica generation) seed one Rng per stream from it and
/// stay bit-reproducible for every thread count.
inline uint64_t StreamSeed(uint64_t seed, int32_t index) {
  return SplitMix64(seed +
                    0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(index + 1));
}

}  // namespace slimfast

#endif  // SLIMFAST_EXEC_SHARDED_RNG_H_

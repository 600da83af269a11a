#ifndef SLIMFAST_UTIL_HASH_H_
#define SLIMFAST_UTIL_HASH_H_

#include <cstdint>

namespace slimfast {

/// SplitMix64 finalizer (Steele, Lea & Flood); a bijective avalanche mix.
/// The one mixing primitive shared by the exec seed streams (StreamSeed in
/// exec/sharded_rng.h) and the content fingerprints of the data/core
/// layers — a single definition so "same mix" stays true by construction.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-sensitive 64-bit combine for incremental content hashing.
inline uint64_t HashCombine(uint64_t h, uint64_t v) {
  return SplitMix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

}  // namespace slimfast

#endif  // SLIMFAST_UTIL_HASH_H_

#ifndef SLIMFAST_BENCH_BENCH_COMMON_H_
#define SLIMFAST_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace slimfast {
namespace bench {

/// Number of random splits averaged per configuration. The paper uses 5;
/// the default here is 3 so the full bench suite completes quickly.
/// Override with SLIMFAST_BENCH_SEEDS.
inline int32_t NumSeeds() {
  const char* env = std::getenv("SLIMFAST_BENCH_SEEDS");
  if (env != nullptr) {
    int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return 3;
}

/// The paper's training-data fractions (Sec. 5.1).
inline std::vector<double> PaperFractions() {
  return {0.001, 0.01, 0.05, 0.10, 0.20};
}

/// Banner helper shared by the bench binaries.
inline void PrintHeader(const std::string& title,
                        const std::string& paper_ref) {
  std::printf("==========================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Seeds per configuration: %d (SLIMFAST_BENCH_SEEDS to "
              "change)\n",
              NumSeeds());
  std::printf("==========================================================\n\n");
}

}  // namespace bench
}  // namespace slimfast

#endif  // SLIMFAST_BENCH_BENCH_COMMON_H_

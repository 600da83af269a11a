#ifndef SLIMBENCH_WORKLOADS_H_
#define SLIMBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "harness.h"

namespace slimbench {

struct RunConfig {
  uint64_t seed = 1;
  /// Measuring time: rounds repeat while the next one still ends within
  /// it (at least three rounds, so a short budget is a floor).
  double seconds = 10.0;
  /// Also run the traced pass and report per-layer metrics.
  bool trace = false;
  /// Fresh directory for this run's WALs; the caller removes it.
  std::string work_dir;
};

struct RunReport {
  MetricSet end_to_end;
  MetricSet per_layer;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// The first few failure messages.
  std::vector<std::string> failures;
  /// Wall seconds of each lifecycle phase, in order.
  std::vector<std::pair<std::string, double>> phase_seconds;
  /// Spans of the traced pass (empty without --trace 1).
  std::vector<Span> spans;
};

/// Runs one workload end to end: set-up, a warm-up write stream, then
/// rounds of cold fits, a durable write stream (under open-loop reads on
/// query_mix) and a recovery, plus every output check. With `config.trace`, also the read figures of workloads
/// that do not read, the capacity ladder and the traced pass.
RunReport RunWorkload(const WorkloadShape& shape, const WorkloadInputs& inputs,
                      const RunConfig& config);

}  // namespace slimbench

#endif  // SLIMBENCH_WORKLOADS_H_

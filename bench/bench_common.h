#ifndef SLIMFAST_BENCH_BENCH_COMMON_H_
#define SLIMFAST_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/stopwatch.h"

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

/// Wall-clock of one call, in seconds.
template <typename Fn>
inline double TimeSeconds(Fn&& fn) {
  Stopwatch watch;
  fn();
  return watch.ElapsedSeconds();
}

/// Collects per-phase timings and emits the machine-readable JSON schema
/// shared by `slimfast_cli bench` (BENCH_runtime.json) and the bench
/// binaries — one schema, one writer, so the bench trajectory stays
/// comparable across emitters:
///
///   {
///     "bench": "<name>",
///     "threads": N,              // thread budget of the run
///     "cores": C,                // hardware cores (caps real speedup)
///     "git": "<git describe>",
///     "phases": [{"name": "...", "seconds": S, "threads": N}, ...],
///     "speedups": [{"phase": "...", "baseline_threads": 1,
///                   "threads": N, "speedup": X}, ...],
///     "scaling": [{"phase": "...", "threads": T,      // optional; the
///                  "seconds": S}, ...],               // per-core curve
///     "metrics": {                      // optional; present once any
///       "counters": {"name": 123, ...}, // AddCounter/AddGauge was called
///       "gauges": {"name": 0.5, ...}
///     }
///   }
class BenchReporter {
 public:
  explicit BenchReporter(std::string bench_name)
      : bench_name_(std::move(bench_name)), git_(GitDescribe()) {}

  void set_threads(int32_t threads) { threads_ = threads; }
  int32_t threads() const { return threads_; }

  /// Records one timed phase. `threads` is the thread budget the phase ran
  /// with; the same phase may be recorded at several thread counts.
  void AddPhase(const std::string& name, double seconds, int32_t threads) {
    phases_.push_back(Phase{name, seconds, threads});
  }

  /// Records a latency-distribution phase: `seconds` plus nearest-rank
  /// percentiles (p50 <= p95 <= p99, all in seconds). The percentiles are
  /// emitted as additional JSON keys on the phase entry and type-checked
  /// by scripts/check_bench_schema.py, including the ordering.
  void AddLatencyPhase(const std::string& name, double seconds,
                       int32_t threads, double p50, double p95,
                       double p99) {
    Phase phase{name, seconds, threads};
    phase.has_percentiles = true;
    phase.p50 = p50;
    phase.p95 = p95;
    phase.p99 = p99;
    phases_.push_back(phase);
  }

  /// Records a throughput phase: wall-clock `seconds` plus the achieved
  /// queries-per-second, emitted as a "qps" key on the phase entry.
  void AddQpsPhase(const std::string& name, double seconds, int32_t threads,
                   double qps) {
    Phase phase{name, seconds, threads};
    phase.has_qps = true;
    phase.qps = qps;
    phases_.push_back(phase);
  }

  /// Records a measured parallel speedup for a phase.
  void AddSpeedup(const std::string& phase, int32_t baseline_threads,
                  int32_t threads, double speedup) {
    speedups_.push_back(Speedup{phase, baseline_threads, threads, speedup});
  }

  /// Records one point of the per-core scaling curve: `phase` measured
  /// wall-clock at `threads` threads. Points are emitted under the
  /// top-level "scaling" key in insertion order; callers record
  /// threads = 1..HardwareCores() ascending.
  void AddScalingPoint(const std::string& phase, int32_t threads,
                       double seconds) {
    scaling_.push_back(ScalingPoint{phase, threads, seconds});
  }

  /// Records a monotonic counter value (observability metrics carried
  /// alongside the phase timings). Emitted under "metrics"/"counters".
  void AddCounter(const std::string& name, int64_t value) {
    counters_.emplace_back(name, value);
  }

  /// Records a point-in-time gauge value. Emitted under
  /// "metrics"/"gauges".
  void AddGauge(const std::string& name, double value) {
    gauges_.emplace_back(name, value);
  }

  std::string ToJson() const {
    std::string out = "{\n";
    out += "  \"bench\": \"" + JsonEscape(bench_name_) + "\",\n";
    out += "  \"threads\": " + std::to_string(threads_) + ",\n";
    out += "  \"cores\": " + std::to_string(HardwareCores()) + ",\n";
    out += "  \"git\": \"" + JsonEscape(git_) + "\",\n";
    out += "  \"phases\": [";
    for (size_t i = 0; i < phases_.size(); ++i) {
      if (i > 0) out += ",";
      out += "\n    {\"name\": \"" + JsonEscape(phases_[i].name) +
             "\", \"seconds\": " + FormatSeconds(phases_[i].seconds) +
             ", \"threads\": " + std::to_string(phases_[i].threads);
      if (phases_[i].has_percentiles) {
        out += ", \"p50\": " + FormatSeconds(phases_[i].p50) +
               ", \"p95\": " + FormatSeconds(phases_[i].p95) +
               ", \"p99\": " + FormatSeconds(phases_[i].p99);
      }
      if (phases_[i].has_qps) {
        out += ", \"qps\": " + FormatSeconds(phases_[i].qps);
      }
      out += "}";
    }
    out += phases_.empty() ? "],\n" : "\n  ],\n";
    out += "  \"speedups\": [";
    for (size_t i = 0; i < speedups_.size(); ++i) {
      if (i > 0) out += ",";
      out += "\n    {\"phase\": \"" + JsonEscape(speedups_[i].phase) +
             "\", \"baseline_threads\": " +
             std::to_string(speedups_[i].baseline_threads) +
             ", \"threads\": " + std::to_string(speedups_[i].threads) +
             ", \"speedup\": " + FormatSeconds(speedups_[i].speedup) + "}";
    }
    const bool have_metrics = !counters_.empty() || !gauges_.empty();
    out += speedups_.empty() ? "]" : "\n  ]";
    if (!scaling_.empty()) {
      out += ",\n  \"scaling\": [";
      for (size_t i = 0; i < scaling_.size(); ++i) {
        if (i > 0) out += ",";
        out += "\n    {\"phase\": \"" + JsonEscape(scaling_[i].phase) +
               "\", \"threads\": " + std::to_string(scaling_[i].threads) +
               ", \"seconds\": " + FormatSeconds(scaling_[i].seconds) + "}";
      }
      out += "\n  ]";
    }
    out += have_metrics ? ",\n" : "\n";
    if (have_metrics) {
      out += "  \"metrics\": {\n    \"counters\": {";
      for (size_t i = 0; i < counters_.size(); ++i) {
        if (i > 0) out += ", ";
        out += "\"" + JsonEscape(counters_[i].first) +
               "\": " + std::to_string(counters_[i].second);
      }
      out += "},\n    \"gauges\": {";
      for (size_t i = 0; i < gauges_.size(); ++i) {
        if (i > 0) out += ", ";
        out += "\"" + JsonEscape(gauges_[i].first) +
               "\": " + FormatSeconds(gauges_[i].second);
      }
      out += "}\n  }\n";
    }
    out += "}\n";
    return out;
  }

  /// Writes ToJson() to `path`; returns false (with a note on stderr) on
  /// I/O failure.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::string json = ToJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    return true;
  }

  /// Hardware concurrency visible to this process (at least 1). Real
  /// wall-clock speedup is capped by this, whatever the thread budget.
  static int32_t HardwareCores() {
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int32_t>(n);
  }

  /// `git describe --always --dirty` of the working tree, or "unknown".
  static std::string GitDescribe() {
    std::FILE* pipe =
        ::popen("git describe --always --dirty 2>/dev/null", "r");
    if (pipe == nullptr) return "unknown";
    char buffer[128];
    std::string out;
    while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) out += buffer;
    ::pclose(pipe);
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
      out.pop_back();
    }
    return out.empty() ? "unknown" : out;
  }

 private:
  struct Phase {
    std::string name;
    double seconds;
    int32_t threads;
    bool has_percentiles = false;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    bool has_qps = false;
    double qps = 0.0;
  };
  struct Speedup {
    std::string phase;
    int32_t baseline_threads;
    int32_t threads;
    double speedup;
  };
  struct ScalingPoint {
    std::string phase;
    int32_t threads;
    double seconds;
  };

  static std::string JsonEscape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  // 9 decimal places (nanosecond granularity): sub-microsecond phases —
  // a cache-served compile lookup — must never round down to a bare 0,
  // which the schema checker treats as a dead timer for required phases.
  static std::string FormatSeconds(double v) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.9f", v);
    return buffer;
  }

  std::string bench_name_;
  std::string git_;
  int32_t threads_ = 1;
  std::vector<Phase> phases_;
  std::vector<Speedup> speedups_;
  std::vector<ScalingPoint> scaling_;
  std::vector<std::pair<std::string, int64_t>> counters_;
  std::vector<std::pair<std::string, double>> gauges_;
};

}  // namespace bench
}  // namespace slimfast

#endif  // SLIMFAST_BENCH_BENCH_COMMON_H_

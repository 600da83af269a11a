#ifndef SLIMFAST_OBS_REGISTRY_H_
#define SLIMFAST_OBS_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/histogram.h"
#include "obs/metrics.h"

namespace slimfast {
namespace obs {

/// Process-wide metric registry: a mutex-protected name → metric map.
///
/// Names follow the Prometheus convention (`slimfast_<layer>_<what>`,
/// counters suffixed `_total`, timings `_seconds`) and may embed a
/// label set: `slimfast_serve_stage_seconds{stage="ingest",shard="0"}`.
/// The part before the first '{' is the metric family, used to group
/// `# TYPE` lines in the rendered dump.
///
/// Registration (Counter/Gauge/Histogram lookup) takes the mutex and is
/// meant to happen once per site at startup — instrumentation sites
/// cache the returned pointer and then update it lock-free. Registered
/// metrics are never removed, so cached pointers stay valid for the
/// process lifetime (the registry leaks by design, like other
/// process-wide singletons, to dodge shutdown-order issues).
class Registry {
 public:
  /// The process-wide instance.
  static Registry& Global();

  /// Returns the counter registered under `name`, creating it on first
  /// use. Thread-safe; the returned pointer never dangles.
  ShardedCounter* Counter(const std::string& name);

  /// Returns the gauge registered under `name`, creating it on first
  /// use.
  class Gauge* Gauge(const std::string& name);

  /// Returns the latency histogram registered under `name`, creating
  /// it on first use.
  LatencyHistogram* Histogram(const std::string& name);

  /// Renders every registered metric as Prometheus-style text,
  /// deterministically sorted by name and terminated by a `# EOF`
  /// line. Counters and gauges render as `name value`; histograms as
  /// summary-style `family{...,quantile="0.5|0.95|0.99"}` lines plus
  /// `_sum` (seconds) and `_count`. Safe to call concurrently with
  /// metric updates (values are point-in-time relaxed reads).
  std::string RenderPrometheus() const;

  /// Drops every registered metric. Test-only: invalidates all cached
  /// pointers, so production instrumentation must never call it.
  void ResetForTest();

 private:
  Registry() = default;

  /// One registered metric: exactly one of the pointers is set.
  struct Entry {
    std::unique_ptr<ShardedCounter> counter;
    std::unique_ptr<class Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> metrics_;
};

/// Shorthand: Registry::Global().Counter(name).
ShardedCounter* GetCounter(const std::string& name);
/// Shorthand: Registry::Global().Gauge(name).
Gauge* GetGauge(const std::string& name);
/// Shorthand: Registry::Global().Histogram(name).
LatencyHistogram* GetHistogram(const std::string& name);

}  // namespace obs
}  // namespace slimfast

#endif  // SLIMFAST_OBS_REGISTRY_H_

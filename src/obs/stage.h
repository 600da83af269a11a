#ifndef SLIMFAST_OBS_STAGE_H_
#define SLIMFAST_OBS_STAGE_H_

#include <chrono>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace slimfast {
namespace obs {

/// RAII timer of one named stage (a compile, an ingest, a relearn, a WAL
/// append...): the one way `src/` times a stage for metrics and traces.
/// It reads the steady clock at construction and at End(), and End()
///   - records a trace span named `span_name` if tracing was on when the
///     stage was constructed,
///   - records the elapsed time into `hist` if it is set and Enabled(),
///   - returns the elapsed seconds, so a site that also reports the
///     duration (IngestStats::seconds, ...) reuses the same reading.
/// The span and the histogram therefore always cover one interval.
///
/// End() is idempotent (later calls return the first reading) and the
/// destructor calls it, so early returns close the stage too. With
/// tracing and metrics off a stage costs its two clock reads; stages
/// run once per batch, relearn or WAL operation, never per query.
class Stage {
 public:
  /// Starts the stage. `span_name` must outlive it (string literals are
  /// the intended use); a null `hist` records no metric.
  explicit Stage(const char* span_name, LatencyHistogram* hist = nullptr)
      : span_name_(TraceRecorder::Global().enabled() ? span_name : nullptr),
        hist_(hist),
        start_(std::chrono::steady_clock::now()) {}

  ~Stage() { End(); }

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// Retargets the metric, for a stage whose series is known only once
  /// it has run (the learner that actually fitted). No effect after End().
  void set_histogram(LatencyHistogram* hist) { hist_ = hist; }

  /// Closes the stage on its first call; returns the elapsed seconds.
  double End() {
    if (!ended_) {
      ended_ = true;
      const auto end = std::chrono::steady_clock::now();
      elapsed_ = end - start_;
      if (span_name_ != nullptr) {
        TraceRecorder::Global().RecordComplete(span_name_, start_, end);
      }
      if (hist_ != nullptr && Enabled()) {
        hist_->Record(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed_)
                .count());
      }
    }
    return std::chrono::duration<double>(elapsed_).count();
  }

 private:
  // Declaration order is construction order: the tracing check precedes
  // the clock read, so a recorded span never starts before the epoch
  // TraceRecorder::Enable() anchored.
  const char* span_name_;
  LatencyHistogram* hist_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::duration elapsed_{};
  bool ended_ = false;
};

}  // namespace obs
}  // namespace slimfast

#endif  // SLIMFAST_OBS_STAGE_H_

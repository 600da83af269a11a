#ifndef SLIMFAST_OBS_TRACE_H_
#define SLIMFAST_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace slimfast {
namespace obs {

/// Process-wide recorder of completed trace spans, written out as a
/// chrome://tracing-compatible JSON array of complete ("ph":"X")
/// events.
///
/// Tracing is off by default and separately gated from metrics: it is
/// enabled explicitly (the `--trace-out FILE` CLI flag) because every
/// span costs two clock reads plus a short mutex-protected append.
/// Spans are therefore recorded at *stage* granularity (ingest,
/// relearn, WAL append, compile...) by `obs::Stage` (obs/stage.h),
/// never per query. The event buffer
/// is capped; once full, further spans are counted as dropped rather
/// than grown without bound.
class TraceRecorder {
 public:
  /// One completed span: [start, start+duration) on a given thread.
  struct Event {
    std::string name;          ///< Span name, e.g. "serve.relearn".
    int64_t start_us = 0;      ///< Microseconds since recorder start.
    int64_t duration_us = 0;   ///< Span duration in microseconds.
    int tid = 0;               ///< Dense per-recorder thread id.
  };

  /// The process-wide instance.
  static TraceRecorder& Global();

  /// Turns recording on (idempotent) and anchors the trace epoch at
  /// the first call.
  void Enable();

  /// Turns recording off; already-recorded events are kept.
  void Disable();

  /// Whether spans are currently being recorded.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records a completed span. No-op when disabled or at capacity
  /// (capacity hits increment the dropped counter instead).
  void RecordComplete(const char* name,
                      std::chrono::steady_clock::time_point start,
                      std::chrono::steady_clock::time_point end);

  /// Number of events recorded so far.
  size_t EventCount() const;

  /// Number of spans discarded because the buffer was full.
  int64_t DroppedCount() const;

  /// Serializes all recorded events as a chrome://tracing JSON
  /// document: {"traceEvents":[...]} with "ph":"X" complete events.
  std::string ToChromeJson() const;

  /// Writes ToChromeJson() to `path`. Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

  /// Drops all recorded events and the dropped counter; recording
  /// state is unchanged. For tests and bench reuse.
  void Clear();

 private:
  TraceRecorder() = default;

  /// Hard cap on buffered events (~1M spans ≈ tens of MB); protects
  /// long-running serve processes traced by accident.
  static constexpr size_t kMaxEvents = 1 << 20;

  int TidFor(std::thread::id id);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::chrono::steady_clock::time_point epoch_{};
  bool epoch_set_ = false;
  std::vector<Event> events_;
  std::unordered_map<std::thread::id, int> tids_;
  int64_t dropped_ = 0;
};

}  // namespace obs
}  // namespace slimfast

#endif  // SLIMFAST_OBS_TRACE_H_

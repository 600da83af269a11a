#ifndef SLIMFAST_OBS_EVENT_LOG_H_
#define SLIMFAST_OBS_EVENT_LOG_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace slimfast {
namespace obs {

/// Severity of a flight-recorder event.
enum class EventSeverity { kInfo, kWarn, kError };

/// The severity's wire/log token ("INFO", "WARN", "ERROR").
const char* EventSeverityName(EventSeverity severity);

/// One structured flight-recorder event: a state transition metrics
/// can't express (recovery started/finished, checkpoint written, shed
/// burst entered/exited, a non-converged relearn, a torn WAL tail
/// healed, an SLO rule breached/cleared).
struct Event {
  int64_t ts_ns = 0;
  EventSeverity severity = EventSeverity::kInfo;
  /// The emitting stage ("recovery", "checkpoint", "admission", "wal",
  /// "slo", "relearn").
  std::string stage;
  /// Shard the event concerns, -1 for service-wide events.
  int32_t shard = -1;
  /// Free-form `key=value`-style detail.
  std::string message;
};

/// Bounded multi-producer ring of structured events, drained by the
/// EVENTS verb and optionally mirrored to a JSONL file (--event-log).
///
/// The ring drops the *oldest* event on overflow and counts drops
/// (`dropped()`, surfaced as slimfast_obs_events_dropped_total): the
/// recent past is what an operator asks for. Writers take a plain
/// mutex — deliberately not a lock-free ring: events are state
/// transitions at human rates (a handful per recovery or shed burst,
/// not per query), the payload is owned strings, and an uncontended
/// mutex keeps the TSan story trivial. The hot paths never emit events;
/// they are guarded by obs::Enabled() at every call site.
class EventLog {
 public:
  /// The process-wide instance. On first use the SLIMFAST_EVENT_LOG
  /// environment variable, when set and non-empty, becomes the default
  /// JSONL mirror path (the CLI flag --event-log overrides it).
  static EventLog& Global();

  /// A log with an explicit ring capacity (tests shrink it).
  explicit EventLog(int32_t capacity);

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;
  ~EventLog();

  /// Appends one event, evicting the oldest when full. When a JSONL
  /// mirror is open the event is also appended (and flushed) there.
  void Emit(Event event);

  /// Convenience: stamps obs::Clock::NowNanos() and emits.
  void Emit(EventSeverity severity, const std::string& stage,
            int32_t shard, std::string message);

  /// The most recent `n` events, oldest first (all of them when n <= 0
  /// or n exceeds the ring's contents).
  std::vector<Event> Recent(int32_t n = 0) const;

  /// Events evicted from the ring (lifetime total).
  int64_t dropped() const;

  /// Events ever emitted (lifetime total; retained = total - dropped).
  int64_t total() const;

  /// Opens (appends to) a JSONL mirror at `path`; an empty path closes
  /// the current mirror. Returns false when the file cannot be opened
  /// (the in-memory ring keeps working either way).
  bool SetMirrorFile(const std::string& path);

  /// Test-only: clears the ring, the counters, and the mirror.
  void ResetForTest();

 private:
  EventLog();  // Global() only: capacity 256 + env-var mirror

  void EmitLocked(Event event);

  const int32_t capacity_;
  mutable std::mutex mu_;
  std::vector<Event> ring_;  // ring_[ (head_ + i) % capacity_ ]
  int32_t head_ = 0;
  int32_t size_ = 0;
  int64_t dropped_ = 0;
  int64_t total_ = 0;
  std::FILE* mirror_ = nullptr;
};

}  // namespace obs
}  // namespace slimfast

#endif  // SLIMFAST_OBS_EVENT_LOG_H_

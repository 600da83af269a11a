#ifndef SLIMFAST_OBS_METRICS_H_
#define SLIMFAST_OBS_METRICS_H_

#include <atomic>
#include <cstdint>

namespace slimfast {
namespace obs {

/// Compile-time kill switch: configure with -DSLIMFAST_OBS=OFF (which
/// defines SLIMFAST_OBS_DISABLED) and Enabled() becomes a constant
/// false, so every `if (obs::Enabled())` instrumentation site is
/// dead-stripped by the compiler — the binary carries no metric updates
/// at all.
#ifdef SLIMFAST_OBS_DISABLED
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

namespace internal {
/// Tri-state runtime switch: -1 = not yet resolved from the
/// environment, 0 = off, 1 = on. Resolved once on first use;
/// SetEnabledForTest overrides it.
extern std::atomic<int> g_enabled;
/// Slow path of Enabled(): reads SLIMFAST_OBS and latches the result.
bool ResolveEnabled();
}  // namespace internal

/// Whether instrumentation is live. Runtime-controlled by the
/// SLIMFAST_OBS environment variable ("0" = off, anything else or unset
/// = on), resolved once per process; compiled to `false` outright under
/// SLIMFAST_OBS_DISABLED. Every instrumentation site guards with this,
/// so a disabled process pays one predictable branch per counter site
/// and no atomic traffic; an obs::Stage still reads its two clocks
/// (obs/stage.h).
inline bool Enabled() {
  if constexpr (!kCompiledIn) return false;
  const int state = internal::g_enabled.load(std::memory_order_relaxed);
  if (state >= 0) return state != 0;
  return internal::ResolveEnabled();
}

/// Test/bench hook: force the runtime switch, returning the previous
/// effective value. Used by the determinism tests (fusion output must be
/// bit-identical with observability on and off) and by loadgen's
/// overhead calibration; call only from single-threaded sections.
bool SetEnabledForTest(bool enabled);

/// Slots a ShardedCounter spreads its increments across. A power of two
/// so the per-thread slot pick is a mask, sized to make two concurrent
/// writers landing on the same cache line unlikely at serve-layer
/// thread counts.
inline constexpr uint32_t kCounterSlots = 16;

/// Monotonic counter, sharded to keep the wait-free query path
/// wait-free: each thread increments its own cache-line-padded slot
/// (relaxed atomics, no read-modify-write contention across threads),
/// and readers fold the slots on demand. The folded value is exact —
/// every increment lands in exactly one slot — but a concurrent read is
/// a point-in-time sum, not a snapshot of a single instant (the usual
/// monitoring-counter semantics).
class ShardedCounter {
 public:
  ShardedCounter() = default;
  ShardedCounter(const ShardedCounter&) = delete;
  ShardedCounter& operator=(const ShardedCounter&) = delete;

  /// Adds `delta` (>= 0 by convention; negative deltas are not checked
  /// but break the Prometheus counter contract) to this thread's slot.
  void Add(int64_t delta) {
    slots_[SlotIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Add(1).
  void Increment() { Add(1); }

  /// Folds every slot, in fixed slot order, into the current total.
  int64_t Value() const {
    int64_t total = 0;
    for (const Slot& slot : slots_) {
      total += slot.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<int64_t> value{0};
  };

  /// This thread's slot index: a hash of the thread id, computed once
  /// per thread and cached thread-locally.
  static uint32_t SlotIndex();

  Slot slots_[kCounterSlots];
};

/// Last-write-wins double-valued gauge (queue depth, snapshot age,
/// versions). A single atomic: gauges are written from one site at a
/// time and read by the METRICS renderer; they do not need sharding.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  /// Publishes `value` (relaxed; monitoring data, not synchronization).
  void Set(double value) {
    bits_.store(ToBits(value), std::memory_order_relaxed);
  }

  /// The most recently Set value (0.0 initially).
  double Value() const {
    return FromBits(bits_.load(std::memory_order_relaxed));
  }

 private:
  static uint64_t ToBits(double v);
  static double FromBits(uint64_t bits);

  std::atomic<uint64_t> bits_{0};
};

}  // namespace obs
}  // namespace slimfast

#endif  // SLIMFAST_OBS_METRICS_H_

#ifndef SLIMFAST_OBS_WATCHDOG_H_
#define SLIMFAST_OBS_WATCHDOG_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace slimfast {
namespace obs {

/// Declarative SLO rules the watchdog evaluates. A ceiling of 0
/// disables its rule, so a default-constructed options block watches
/// nothing.
struct SloWatchdogOptions {
  /// Query p99 ceiling, seconds (rule "query_p99").
  double query_p99_ceiling_seconds = 0.0;
  /// Max shard-staleness ceiling, seconds (rule "staleness"): how old
  /// the oldest unabsorbed batch of any shard may grow.
  double staleness_ceiling_seconds = 0.0;
  /// Ingest-queue high-water as a fraction of capacity in (0, 1]
  /// (rule "queue_depth").
  double queue_high_water = 0.0;
  /// Driver-heartbeat staleness ceiling, seconds (rule
  /// "relearn_stall"): fires when the driver has not completed a loop
  /// iteration for this long *while work is pending* — a wedged or
  /// stalled relearn.
  double relearn_stall_seconds = 0.0;
};

/// Hysteresis: a latched breach clears only once the value falls to
/// <= ceiling * kSloClearFraction, so a value oscillating at the
/// ceiling cannot flap the health state.
inline constexpr double kSloClearFraction = 0.8;

/// One evaluation's inputs, gathered by the service from its live
/// state and time-series.
struct SloInputs {
  double query_p99_seconds = 0.0;
  double max_staleness_seconds = 0.0;
  /// Ingest-queue depth as a fraction of capacity, [0, 1].
  double queue_fraction = 0.0;
  /// Seconds since the driver loop last completed an iteration.
  double heartbeat_age_seconds = 0.0;
  /// Whether any shard has unabsorbed work (the stall rule only
  /// applies when there is something to stall on).
  bool backlog_nonzero = false;
};

/// One rule's state change from an Evaluate call.
struct SloTransition {
  std::string rule;
  bool breached = false;  // true = entered breach, false = cleared
  /// The value that crossed the threshold.
  double value = 0.0;
  /// The rule's configured ceiling.
  double ceiling = 0.0;
};

/// An Evaluate verdict: healthy or degraded, with the latched rules.
struct SloVerdict {
  bool ok = true;
  /// Currently latched (breached) rule names, fixed order.
  std::vector<std::string> breached_rules;
  /// Rules that changed state during this evaluation.
  std::vector<SloTransition> transitions;
};

/// Evaluates the configured SLO rules against a snapshot of inputs,
/// with per-rule breach latching and hysteresis: a rule breaches when
/// its value exceeds the ceiling and clears only when the value falls
/// to <= ceiling * kSloClearFraction. Evaluated from the serve driver's
/// sampling tick and on demand by the HEALTH verb, hence the internal
/// mutex.
class SloWatchdog {
 public:
  explicit SloWatchdog(SloWatchdogOptions options);

  SloWatchdog(const SloWatchdog&) = delete;
  SloWatchdog& operator=(const SloWatchdog&) = delete;

  /// Whether any rule is configured (all ceilings 0 = nothing to
  /// watch; HEALTH then reports OK unconditionally).
  bool active() const;

  /// Evaluates every configured rule against `inputs` and returns the
  /// verdict plus any state transitions (for the caller to turn into
  /// events and gauge flips).
  SloVerdict Evaluate(const SloInputs& inputs);

 private:
  struct Rule {
    const char* name;
    double ceiling = 0.0;
    bool breached = false;
  };

  /// Applies the latch/hysteresis transition for one rule given its
  /// current value; `gate` additionally guards breaching (the stall
  /// rule only fires while work is pending).
  void Step(Rule* rule, double value, bool gate, SloVerdict* verdict);

  std::mutex mu_;
  Rule query_p99_{"query_p99"};
  Rule staleness_{"staleness"};
  Rule queue_depth_{"queue_depth"};
  Rule relearn_stall_{"relearn_stall"};
};

}  // namespace obs
}  // namespace slimfast

#endif  // SLIMFAST_OBS_WATCHDOG_H_

#include "obs/watchdog.h"

#include <utility>

namespace slimfast {
namespace obs {

SloWatchdog::SloWatchdog(SloWatchdogOptions options) {
  query_p99_.ceiling = options.query_p99_ceiling_seconds;
  staleness_.ceiling = options.staleness_ceiling_seconds;
  queue_depth_.ceiling = options.queue_high_water;
  relearn_stall_.ceiling = options.relearn_stall_seconds;
}

bool SloWatchdog::active() const {
  return query_p99_.ceiling > 0.0 || staleness_.ceiling > 0.0 ||
         queue_depth_.ceiling > 0.0 || relearn_stall_.ceiling > 0.0;
}

void SloWatchdog::Step(Rule* rule, double value, bool gate,
                       SloVerdict* verdict) {
  if (rule->ceiling <= 0.0) return;  // rule off
  const double clear_at = rule->ceiling * kSloClearFraction;
  bool changed = false;
  if (!rule->breached) {
    if (gate && value > rule->ceiling) {
      rule->breached = true;
      changed = true;
    }
  } else if (value <= clear_at || !gate) {
    rule->breached = false;
    changed = true;
  }
  if (changed) {
    SloTransition transition;
    transition.rule = rule->name;
    transition.breached = rule->breached;
    transition.value = value;
    transition.ceiling = rule->ceiling;
    verdict->transitions.push_back(std::move(transition));
  }
  if (rule->breached) {
    verdict->ok = false;
    verdict->breached_rules.emplace_back(rule->name);
  }
}

SloVerdict SloWatchdog::Evaluate(const SloInputs& inputs) {
  std::lock_guard<std::mutex> lock(mu_);
  SloVerdict verdict;
  Step(&query_p99_, inputs.query_p99_seconds, /*gate=*/true, &verdict);
  Step(&staleness_, inputs.max_staleness_seconds, /*gate=*/true,
       &verdict);
  Step(&queue_depth_, inputs.queue_fraction, /*gate=*/true, &verdict);
  // The stall rule is gated on pending work: an idle driver that blocks
  // in PopBatch for minutes is healthy, a driver that stops ticking
  // while a backlog waits is wedged.
  Step(&relearn_stall_, inputs.heartbeat_age_seconds,
       inputs.backlog_nonzero, &verdict);
  return verdict;
}

}  // namespace obs
}  // namespace slimfast

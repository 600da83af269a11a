#ifndef SLIMFAST_SERVE_LINE_PROTOCOL_H_
#define SLIMFAST_SERVE_LINE_PROTOCOL_H_

#include <string>

#include "data/observation_store.h"
#include "serve/fusion_service.h"

namespace slimfast {

/// Every verb LineProtocol dispatches, in the order the unknown-command
/// reply and the `serve` banner list them.
inline constexpr const char* kProtocolVerbs[] = {
    "OBS",   "TRUTH",   "COMMIT", "QUERY",      "POSTERIOR",
    "STATS", "METRICS", "HEALTH", "HISTORY",    "EVENTS",
    "SLOW",  "SCHED",   "CHECKPOINT", "DRAIN",  "QUIT"};

/// kProtocolVerbs joined by single spaces.
std::string ProtocolVerbList();

/// The text protocol behind `slimfast_cli serve`: one command per line,
/// one reply line per command. Decoupled from any transport — the CLI
/// drives it from stdin, a socket server would drive it per connection,
/// and the tests drive it directly.
///
/// Commands (ids are the dense integer ids of the service's universe):
///
///   OBS <object> <source> <value>   buffer one observation   -> OK
///   TRUTH <object> <value>          buffer one truth label   -> OK
///   COMMIT                          submit buffered batch    -> OK n m
///   QUERY <object>                  current MAP estimate     -> VALUE v c
///                                   (c = posterior confidence) or NONE
///   POSTERIOR <object>              posterior distribution   -> POSTERIOR
///                                   v:p v:p ... or NONE
///   STATS                           service counters         -> STATS ...
///   METRICS                         Prometheus dump          -> multi-line,
///                                   "# EOF" terminated
///   HEALTH                          SLO watchdog verdict     -> OK or
///                                   DEGRADED <rule>[,<rule>...]
///   HISTORY [series] [window]       flight-recorder          -> multi-line,
///                                   time-series (bare HISTORY lists the
///                                   series names), "# EOF" terminated
///   EVENTS [n]                      recent structured events -> multi-line,
///                                   "# EOF" terminated
///   SLOW [n]                        slow-operation exemplars -> multi-line,
///                                   "# EOF" terminated
///   SCHED                           relearn + admission      -> SCHED ...
///                                   state (per-shard pending)
///   CHECKPOINT                      durable checkpoint + WAL -> OK
///                                   truncation (needs wal_dir)
///   DRAIN                           block until applied      -> OK
///   QUIT                            end the session          -> BYE
///
/// Malformed or unknown input gets a single `ERR <reason>` reply and
/// leaves all state unchanged. When admission control is configured
/// (FusionServiceOptions::shed_backlog_watermark) an over-watermark
/// COMMIT is shed with `ERR BUSY retry_after_ms=<hint> ...` and the
/// client's buffer is kept for retry. Queries go straight to the
/// wait-free snapshot path; only COMMIT/DRAIN touch the ingest pipeline.
///
/// The full protocol reference (grammar, reply shapes, ordering and
/// ack semantics, a worked transcript) lives in docs/PROTOCOL.md.
class LineProtocol {
 public:
  /// Binds the protocol to `service` (borrowed; must outlive this).
  explicit LineProtocol(FusionService* service) : service_(service) {}

  /// Executes one command line and returns the reply (no trailing
  /// newline; METRICS replies span multiple lines, terminated by a
  /// "# EOF" line). Sets `*quit` to true on QUIT when `quit` is
  /// non-null. When observability is enabled the verb's wall time is
  /// recorded into slimfast_serve_verb_latency_seconds{verb=...}.
  std::string HandleLine(const std::string& line, bool* quit = nullptr);

  /// Observations + truths buffered toward the next COMMIT.
  int64_t buffered() const { return pending_.size(); }

 private:
  /// HandleLine minus the verb-latency envelope.
  std::string HandleLineInner(const std::string& line, bool* quit);

  FusionService* service_;
  ObservationBatch pending_;
};

}  // namespace slimfast

#endif  // SLIMFAST_SERVE_LINE_PROTOCOL_H_

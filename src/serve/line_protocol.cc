#include "serve/line_protocol.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/slow_log.h"
#include "obs/timeseries.h"
#include "util/hash.h"

namespace slimfast {

namespace {

/// Parses a non-negative 32-bit id; false on garbage or trailing junk.
bool ParseId(const std::string& token, int32_t* out) {
  if (token.empty()) return false;
  int64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
    if (value > INT32_MAX) return false;
  }
  *out = static_cast<int32_t>(value);
  return true;
}

std::string FormatDouble(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6f", v);
  return buffer;
}

/// Per-verb latency histogram, cached per listed verb so the hot path
/// skips the registry mutex. Unknown commands share one "OTHER" series
/// so a misbehaving client cannot grow the registry without bound.
obs::LatencyHistogram* VerbHistogram(const std::string& verb) {
  constexpr size_t kNumVerbs = std::size(kProtocolVerbs);
  static const auto kHistograms = [] {
    std::array<obs::LatencyHistogram*, kNumVerbs + 1> histograms;
    for (size_t i = 0; i <= kNumVerbs; ++i) {
      const std::string name = i < kNumVerbs ? kProtocolVerbs[i] : "OTHER";
      histograms[i] = obs::GetHistogram(
          "slimfast_serve_verb_latency_seconds{verb=\"" + name + "\"}");
    }
    return histograms;
  }();
  size_t i = 0;
  while (i < kNumVerbs && verb != kProtocolVerbs[i]) ++i;
  return kHistograms[i];
}

}  // namespace

std::string ProtocolVerbList() {
  std::string list;
  for (const char* verb : kProtocolVerbs) {
    if (!list.empty()) list += ' ';
    list += verb;
  }
  return list;
}

std::string LineProtocol::HandleLine(const std::string& line, bool* quit) {
  // Timed by hand, not by obs::Stage: this is the query path, so with
  // obs off it must read no clock, and it must never emit a span per
  // query.
  if (!obs::Enabled()) return HandleLineInner(line, quit);
  const auto start = std::chrono::steady_clock::now();
  std::string reply = HandleLineInner(line, quit);
  const size_t verb_end = line.find(' ');
  const std::string verb = line.substr(0, verb_end);
  const int64_t elapsed_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  VerbHistogram(verb)->Record(elapsed_ns);
  if (verb == "QUERY" || verb == "POSTERIOR") {
    // Slow-query exemplars: the adaptive threshold tracks the EWMA of
    // every query, so only genuine tail outliers are captured.
    obs::SlowLog::Global().Offer(verb, elapsed_ns, /*shard=*/-1, line);
  }
  return reply;
}

std::string LineProtocol::HandleLineInner(const std::string& line,
                                          bool* quit) {
  std::istringstream in(line);
  std::string command;
  in >> command;
  std::vector<std::string> args;
  for (std::string token; in >> token;) args.push_back(token);

  if (command.empty()) return "ERR empty command";

  if (command == "OBS") {
    int32_t object = 0;
    int32_t source = 0;
    int32_t value = 0;
    if (args.size() != 3 || !ParseId(args[0], &object) ||
        !ParseId(args[1], &source) || !ParseId(args[2], &value)) {
      return "ERR usage: OBS <object> <source> <value>";
    }
    if (object >= service_->num_objects() ||
        source >= service_->num_sources() ||
        value >= service_->num_values()) {
      return "ERR id outside the service universe";
    }
    pending_.observations.push_back(Observation{object, source, value});
    return "OK";
  }

  if (command == "TRUTH") {
    int32_t object = 0;
    int32_t value = 0;
    if (args.size() != 2 || !ParseId(args[0], &object) ||
        !ParseId(args[1], &value)) {
      return "ERR usage: TRUTH <object> <value>";
    }
    if (object >= service_->num_objects() ||
        value >= service_->num_values()) {
      return "ERR id outside the service universe";
    }
    pending_.truths.push_back(TruthLabel{object, value});
    return "OK";
  }

  if (command == "COMMIT") {
    if (!args.empty()) return "ERR usage: COMMIT";
    const int64_t observations =
        static_cast<int64_t>(pending_.observations.size());
    const int64_t truths = static_cast<int64_t>(pending_.truths.size());
    if (observations + truths > 0) {
      // Submit a copy: Submit consumes its batch even on failure (the
      // queue drops pushes after close), so handing over pending_
      // itself would silently lose the client's buffer on a
      // backpressure/shutdown ERR with no way to retry.
      int64_t retry_after_ms = 0;
      Status status =
          service_->SubmitWithBackpressure(pending_, &retry_after_ms);
      if (status.IsOutOfRange()) {
        // Admission control shed the batch: tell the client how long to
        // back off instead of blocking it.
        return "ERR BUSY retry_after_ms=" +
               std::to_string(retry_after_ms) + " (" +
               std::to_string(observations) + " observations + " +
               std::to_string(truths) +
               " truths kept buffered for retry)";
      }
      if (!status.ok()) {
        return "ERR " + status.ToString() + " (" +
               std::to_string(observations) + " observations + " +
               std::to_string(truths) +
               " truths kept buffered for retry)";
      }
      pending_ = ObservationBatch();
    }
    return "OK " + std::to_string(observations) + " " +
           std::to_string(truths);
  }

  if (command == "QUERY") {
    int32_t object = 0;
    if (args.size() != 1 || !ParseId(args[0], &object)) {
      return "ERR usage: QUERY <object>";
    }
    // One snapshot for both fields: separate Query/QueryConfidence
    // calls could straddle a publish and pair a prediction with another
    // model's confidence.
    const FusionSnapshotPtr snapshot = service_->SnapshotFor(object);
    const ValueId value =
        snapshot == nullptr ? kNoValue : snapshot->Prediction(object);
    if (value == kNoValue) return "NONE";
    return "VALUE " + std::to_string(value) + " " +
           FormatDouble(snapshot->Confidence(object));
  }

  if (command == "POSTERIOR") {
    int32_t object = 0;
    if (args.size() != 1 || !ParseId(args[0], &object)) {
      return "ERR usage: POSTERIOR <object>";
    }
    std::vector<ValueId> values;
    std::vector<double> probs;
    if (!service_->QueryPosterior(object, &values, &probs)) return "NONE";
    std::string reply = "POSTERIOR";
    for (size_t i = 0; i < values.size(); ++i) {
      reply += " " + std::to_string(values[i]) + ":" +
               FormatDouble(probs[i]);
    }
    return reply;
  }

  if (command == "METRICS") {
    if (!args.empty()) return "ERR usage: METRICS";
    if (!obs::Enabled()) {
      return "# observability disabled (SLIMFAST_OBS=0)\n# EOF";
    }
    service_->UpdateObsGauges();
    std::string text = obs::Registry::Global().RenderPrometheus();
    // The transport appends the terminating newline; the "# EOF" line
    // is how clients find the end of this multi-line reply.
    if (!text.empty() && text.back() == '\n') text.pop_back();
    return text;
  }

  if (command == "HEALTH") {
    if (!args.empty()) return "ERR usage: HEALTH";
    return service_->Health();
  }

  if (command == "EVENTS") {
    int32_t n = 0;
    if (args.size() > 1 || (args.size() == 1 && !ParseId(args[0], &n))) {
      return "ERR usage: EVENTS [n]";
    }
    if (!obs::Enabled()) {
      return "# observability disabled (SLIMFAST_OBS=0)\n# EOF";
    }
    obs::EventLog& log = obs::EventLog::Global();
    const std::vector<obs::Event> events = log.Recent(n);
    std::string reply =
        "EVENTS n=" + std::to_string(events.size()) +
        " dropped=" + std::to_string(log.dropped());
    for (const obs::Event& event : events) {
      reply += "\n" + FormatDouble(static_cast<double>(event.ts_ns) * 1e-9) +
               " " + obs::EventSeverityName(event.severity) + " " +
               event.stage + " shard=" + std::to_string(event.shard) + " " +
               event.message;
    }
    return reply + "\n# EOF";
  }

  if (command == "HISTORY") {
    if (args.size() > 2) return "ERR usage: HISTORY [series] [window_s]";
    if (!obs::Enabled()) {
      return "# observability disabled (SLIMFAST_OBS=0)\n# EOF";
    }
    obs::TimeSeriesStore& store = obs::TimeSeriesStore::Global();
    if (args.empty()) {
      const std::vector<std::string> names = store.Names();
      std::string reply = "HISTORY series=" + std::to_string(names.size());
      for (const std::string& name : names) reply += "\n" + name;
      return reply + "\n# EOF";
    }
    obs::TimeSeries* series = store.Find(args[0]);
    if (series == nullptr) {
      return "ERR unknown series '" + args[0] +
             "' (bare HISTORY lists them)";
    }
    int32_t window_s = 0;
    if (args.size() == 2 && !ParseId(args[1], &window_s)) {
      return "ERR usage: HISTORY [series] [window_s]";
    }
    // Pick the finest resolution whose ring spans the window (the
    // coarsest one when nothing does); no window = the finest ring.
    int32_t r = 0;
    int32_t max_samples = 0;
    if (window_s > 0) {
      const int64_t window_ns = static_cast<int64_t>(window_s) * 1'000'000'000;
      r = series->num_resolutions() - 1;
      for (int32_t i = 0; i < series->num_resolutions(); ++i) {
        if (series->bucket_nanos(i) * series->capacity(i) >= window_ns) {
          r = i;
          break;
        }
      }
      max_samples = static_cast<int32_t>(
          (window_ns + series->bucket_nanos(r) - 1) /
          series->bucket_nanos(r));
    }
    const std::vector<obs::SeriesSample> samples =
        series->Samples(r, max_samples);
    const bool counter = series->kind() == obs::SeriesKind::kCounter;
    const std::vector<double> rates =
        counter ? series->Rates(r, max_samples) : std::vector<double>();
    std::string reply =
        "HISTORY " + args[0] + " kind=" + (counter ? "counter" : "gauge") +
        " res=" + std::to_string(series->bucket_nanos(r) / 1'000'000'000) +
        "s samples=" + std::to_string(samples.size());
    for (size_t i = 0; i < samples.size(); ++i) {
      reply += "\n" +
               FormatDouble(static_cast<double>(samples[i].bucket_start_ns) *
                            1e-9) +
               " " + FormatDouble(samples[i].value);
      if (counter) {
        // rates[i-1] covers the step into sample i; the first bucket has
        // no predecessor to difference against.
        reply += i == 0 ? " -" : " " + FormatDouble(rates[i - 1]);
      }
    }
    return reply + "\n# EOF";
  }

  if (command == "SLOW") {
    int32_t n = 0;
    if (args.size() > 1 || (args.size() == 1 && !ParseId(args[0], &n))) {
      return "ERR usage: SLOW [n]";
    }
    if (!obs::Enabled()) {
      return "# observability disabled (SLIMFAST_OBS=0)\n# EOF";
    }
    obs::SlowLog& log = obs::SlowLog::Global();
    const std::vector<obs::SlowExemplar> exemplars = log.Recent(n);
    std::string reply =
        "SLOW n=" + std::to_string(exemplars.size()) +
        " threshold_ns=" + std::to_string(log.ThresholdNanos());
    for (const obs::SlowExemplar& e : exemplars) {
      reply += "\n" + FormatDouble(static_cast<double>(e.ts_ns) * 1e-9) +
               " " + e.kind + " " + std::to_string(e.duration_ns) +
               "ns shard=" + std::to_string(e.shard) + " " + e.detail;
    }
    return reply + "\n# EOF";
  }

  if (command == "STATS") {
    if (!args.empty()) return "ERR usage: STATS";
    const FusionServiceStats stats = service_->stats();
    // 64-bit accumulator: the per-shard counters are session-lifetime
    // values and their sum must not wrap on long-lived services.
    int64_t pending = 0;
    double last_relearn_seconds = 0.0;
    for (const FusionSession::Stats& shard : service_->SessionStats()) {
      pending += shard.pending_batches;
      if (shard.last_relearn_seconds > last_relearn_seconds) {
        last_relearn_seconds = shard.last_relearn_seconds;
      }
    }
    // Order-sensitive fold of the published per-shard store
    // fingerprints: one hex token that two services can compare to
    // decide whether they have absorbed the same evidence (the
    // crash-recovery smoke test's oracle).
    uint64_t store_fingerprint = 0;
    for (const FusionSnapshotPtr& snapshot : service_->AllSnapshots()) {
      store_fingerprint = HashCombine(
          store_fingerprint,
          snapshot == nullptr ? 0 : snapshot->store_fingerprint);
    }
    char fingerprint_hex[24];
    std::snprintf(fingerprint_hex, sizeof(fingerprint_hex), "%016llx",
                  static_cast<unsigned long long>(store_fingerprint));
    return "STATS shards=" + std::to_string(service_->num_shards()) +
           " batches=" + std::to_string(stats.batches_processed) +
           " observations=" + std::to_string(stats.observations_ingested) +
           " truths=" + std::to_string(stats.truths_ingested) +
           " relearns=" + std::to_string(stats.relearns) +
           " publishes=" + std::to_string(stats.publishes) +
           " queries=" + std::to_string(stats.queries) +
           " failures=" + std::to_string(stats.ingest_failures) +
           " pending_batches=" + std::to_string(pending) +
           " store_fingerprint=" + fingerprint_hex +
           " last_relearn_s=" + FormatDouble(last_relearn_seconds) +
           " uptime_s=" + FormatDouble(stats.uptime_seconds) +
           " recovered=" + (stats.recovered ? "1" : "0") +
           " lifetime_batches=" + std::to_string(stats.lifetime_batches) +
           " lifetime_relearns=" + std::to_string(stats.lifetime_relearns) +
           " lifetime_observations=" +
           std::to_string(stats.lifetime_observations);
  }

  if (command == "SCHED") {
    if (!args.empty()) return "ERR usage: SCHED";
    const SchedInspection sched = service_->SchedStats();
    std::string reply = "SCHED cycles=" + std::to_string(sched.cycles);
    reply += " queue_depth=" + std::to_string(sched.queue_depth);
    reply += " queue_capacity=" + std::to_string(sched.queue_capacity);
    reply += " backlog=" + std::to_string(sched.backlog);
    reply += " sheds=" + std::to_string(sched.sheds);
    for (size_t s = 0; s < sched.pending.size(); ++s) {
      reply += " shard" + std::to_string(s) +
               "=pending:" + std::to_string(sched.pending[s]);
    }
    return reply;
  }

  if (command == "CHECKPOINT") {
    if (!args.empty()) return "ERR usage: CHECKPOINT";
    Status status = service_->Checkpoint();
    if (!status.ok()) return "ERR " + status.ToString();
    return "OK";
  }

  if (command == "DRAIN") {
    if (!args.empty()) return "ERR usage: DRAIN";
    Status status = service_->Drain();
    if (!status.ok()) return "ERR " + status.ToString();
    return "OK";
  }

  if (command == "QUIT") {
    if (quit != nullptr) *quit = true;
    return "BYE";
  }

  return "ERR unknown command '" + command + "' (" + ProtocolVerbList() +
         ")";
}

}  // namespace slimfast

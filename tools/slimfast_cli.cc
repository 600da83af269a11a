// slimfast_cli — run data fusion on a dataset directory from the shell.
//
// Usage:
//   slimfast_cli <dataset_dir> [options]
//   slimfast_cli --demo <stocks|demos|crowd|genomics> [options]
//   slimfast_cli replay (<dataset_dir> | --demo NAME) [--chunks K] [options]
//   slimfast_cli serve (<dataset_dir> | --demo NAME | --dims S O V)
//                [--shards N] [--relearn-every K] [--preload]
//                [--wal-dir DIR] [--fsync-every N] [options]
//   slimfast_cli loadgen (<dataset_dir> | --demo NAME) [--quick]
//                [--shards N] [--chunks K] [--readers R]
//
// The dataset directory uses the CSV layout of data/io.h (meta.csv,
// observations.csv, truth.csv, features.csv, source_features.csv) — the
// same format SaveDataset writes.
//
// Options:
//   --method NAME         fusion method (default SLiMFast); one of
//                         SLiMFast, SLiMFast-ERM, SLiMFast-EM, Sources-ERM,
//                         Sources-EM, MajorityVote, Counts, ACCU, CATD,
//                         SSTF, TruthFinder
//   --train-fraction F    fraction of labeled objects revealed (default 0.1)
//   --seed N              random seed (default 42)
//   --explain K           print explanations for the K least-confident
//                         objects (SLiMFast methods only)
//   --out FILE            write per-object predictions as CSV
//   --stats               print dataset statistics and exit
//   --threads N           worker threads for the parallel execution engine
//                         (default: SLIMFAST_THREADS or 1); results are
//                         bit-identical for every thread count
//   --chunks K            replay: number of ingest batches (default 8)
//   --trace-out FILE      serve/loadgen/replay: write stage spans as a
//                         chrome://tracing JSON timeline to FILE on exit
//
// A flag applies only to the subcommands that read it (the kFlags table);
// given to any other, it is a one-line usage error with exit code 2.
//
// The `replay` subcommand feeds a dataset through a long-lived
// FusionSession in K chunks — delta-compile on ingest, warm-started
// relearn after every chunk — and reports the per-chunk latency and
// accuracy trajectory against (a) recompiling from scratch and (b) the
// one-shot batch run.
//
// The `serve` subcommand runs a sharded FusionService and speaks the
// serve line protocol (src/serve/line_protocol.h) over stdin/stdout:
// OBS/TRUTH/COMMIT feed the background ingest pipeline, QUERY/POSTERIOR
// are wait-free snapshot reads, DRAIN synchronizes, QUIT exits. With
// --wal-dir the service logs every batch to an observation WAL before
// applying it, CHECKPOINT persists per-shard snapshots there, and a
// restart with the same --wal-dir recovers the exact pre-crash state
// (snapshot + WAL tail replay) — kill -9 included.
//
// The `loadgen` subcommand replays a dataset through a FusionService as
// a mixed ingest/query workload (reader threads hammer queries during
// ingest and relearning), reports QPS and p50/p95/p99 query latency,
// and cross-checks the final sharded snapshots against the offline replay
// (the sharded-replay determinism contract). It then gates the metrics
// overhead on query p99 and runs the skewed-scheduler scenario; any
// failed check is a non-zero exit. The repository benchmark
// (slimbench/) measures the service; loadgen writes no report file.

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <variant>

#include "baselines/registry.h"
#include "core/explain.h"
#include "core/fusion_session.h"
#include "core/slimfast.h"
#include "data/io.h"
#include "data/stats.h"
#include "eval/metrics.h"
#include "obs/event_log.h"
#include "obs/trace.h"
#include "serve/fusion_service.h"
#include "serve/line_protocol.h"
#include "serve/loadgen.h"
#include "storage/wal.h"
#include "synth/simulators.h"
#include "synth/synthetic.h"
#include "util/csv.h"
#include "util/random.h"
#include "util/stopwatch.h"

using namespace slimfast;

namespace {

/// The subcommands, as bits of a flag's scope (see kFlags).
enum Command : unsigned {
  kFuse = 1u << 0,  ///< no subcommand: one fusion run on a dataset
  kReplay = 1u << 1,
  kServe = 1u << 2,
  kLoadgen = 1u << 3,
};
constexpr unsigned kServeOrLoadgen = kServe | kLoadgen;
constexpr unsigned kSubcommands = kReplay | kServe | kLoadgen;
constexpr unsigned kAllCommands = kFuse | kSubcommands;

const char* CommandName(Command command) {
  switch (command) {
    case kFuse:
      return "a fusion run";
    case kReplay:
      return "replay";
    case kServe:
      return "serve";
    case kLoadgen:
      return "loadgen";
  }
  return "?";
}

struct CliOptions {
  Command command = kFuse;
  std::string dataset_dir;
  std::string demo;
  std::string method = "SLiMFast";
  double train_fraction = 0.1;
  uint64_t seed = 42;
  int32_t explain = 0;
  std::string out_file;
  bool stats_only = false;
  bool help = false;
  /// Worker threads; 0 defers to SLIMFAST_THREADS (default 1).
  int32_t threads = 0;
  /// Shrink the loadgen scenario to CI size (same phases and gates).
  bool quick = false;
  /// Number of replay/loadgen ingest batches.
  int32_t chunks = 8;
  /// Shards of the FusionService (serve/loadgen).
  int32_t shards = 4;
  /// Query reader threads (loadgen).
  int32_t readers = 4;
  /// Relearn-every-K-batches policy (serve/loadgen).
  int32_t relearn_every = 2;
  /// Explicit universe dimensions (sources, objects, values) for `serve`
  /// without a dataset; -1 = not given.
  std::array<int32_t, 3> dims = {-1, -1, -1};
  /// serve: submit the whole dataset as one batch before reading stdin.
  bool preload = false;
  /// loadgen: skip the offline-replay cross-check.
  bool no_verify = false;
  /// serve: durability directory ("" = in-memory only).
  std::string wal_dir;
  /// serve WAL fsync cadence: 1 = every batch (default),
  /// 0 = never (OS-crash durable only), N > 1 = every N batches.
  int32_t fsync_every = 1;
  /// serve/loadgen/replay: write a chrome://tracing JSON timeline of the
  /// run's stage spans here ("" = tracing off).
  std::string trace_out;
  /// serve/loadgen: warm-queue relearn budget per decision cycle. Unset
  /// keeps the subcommand's default: unlimited (0) for serve, the
  /// budgeted phase's 2 for loadgen.
  std::optional<int32_t> sched_warm_budget;
  /// serve/loadgen: cold-queue (first-fit) relearn budget per cycle
  /// (unset: 0 for serve, 1 for loadgen).
  std::optional<int32_t> sched_cold_budget;
  /// serve/loadgen: cycles a pending shard may lose before it is forced
  /// (unset: 4).
  std::optional<int32_t> sched_max_defer;
  /// serve: shed COMMITs once the ingest queue holds this fraction of
  /// its capacity (0 = no queue watermark).
  double shed_queue_watermark = 0.0;
  /// serve: shed COMMITs once the relearn backlog reaches this many
  /// batches (0 = no backlog watermark).
  int64_t shed_backlog = 0;
  /// serve: mirror structured events to this JSONL file ("" defers to
  /// the SLIMFAST_EVENT_LOG env var; both empty = in-memory ring only).
  std::string event_log;
  /// serve SLO watchdog ceilings; 0 disables the rule (see HEALTH).
  double slo_query_p99 = 0.0;
  /// Max shard-staleness ceiling, seconds (rule "staleness").
  double slo_staleness = 0.0;
  /// Driver-heartbeat stall ceiling, seconds (rule "relearn_stall").
  double slo_stall = 0.0;
  /// Ingest-queue high-water fraction in (0, 1] (rule "queue_depth").
  double slo_queue = 0.0;
};

/// Maps the --fsync-every knob onto WalOptions.
WalOptions WalOptionsFor(int32_t fsync_every) {
  WalOptions wal;
  if (fsync_every <= 0) {
    wal.fsync = WalFsync::kNone;
  } else if (fsync_every == 1) {
    wal.fsync = WalFsync::kEveryBatch;
  } else {
    wal.fsync = WalFsync::kEveryN;
    wal.fsync_every_n = fsync_every;
  }
  return wal;
}

/// One-line parse-error reporter: the message plus a usage hint, never
/// the full help dump (satisfying "fail fast, point at --help").
bool UsageError(const std::string& message) {
  std::fprintf(stderr,
               "slimfast_cli: %s (run 'slimfast_cli --help' for usage)\n",
               message.c_str());
  return false;
}

/// Parses all of `text` as a number into `*out`. Empty, non-numeric,
/// trailing-garbage, and out-of-range values are one-line usage errors
/// naming `flag` — never a silent 0.
template <typename T>
bool ParseNumber(const std::string& flag, const char* text, T* out) {
  const char* end = text + std::strlen(text);
  const auto [last, ec] = std::from_chars(text, end, *out);
  if (text == end || ec != std::errc() || last != end) {
    return UsageError("option '" + flag + "' expects a number, got '" +
                      text + "'");
  }
  return true;
}

void PrintUsage(std::FILE* stream) {
  std::fprintf(stream,
               "usage: slimfast_cli <dataset_dir> [--method NAME] "
               "[--train-fraction F]\n"
               "                    [--seed N] [--explain K] [--out FILE] "
               "[--stats]\n"
               "       slimfast_cli --demo <stocks|demos|crowd|genomics> "
               "[options]\n"
               "       slimfast_cli serve (<dataset_dir> | --demo NAME | "
               "--dims S O V)\n"
               "                    [--shards N] [--relearn-every K] "
               "[--preload]\n"
               "                    [--wal-dir DIR] [--fsync-every N]\n"
               "                    [--sched-warm-budget N] "
               "[--sched-cold-budget N]\n"
               "                    [--sched-max-defer N] "
               "[--shed-queue-watermark F]\n"
               "                    [--shed-backlog N] [--event-log FILE]\n"
               "                    [--slo-query-p99 S] [--slo-staleness S] "
               "[--slo-stall S]\n"
               "                    [--slo-queue F]\n"
               "       slimfast_cli replay (<dataset_dir> | --demo NAME) "
               "[--chunks K]\n"
               "       slimfast_cli loadgen (<dataset_dir> | --demo NAME) "
               "[--quick]\n"
               "                    [--shards N] [--chunks K] [--readers R]\n"
               "\n"
               "options:\n"
               "  --demo NAME          run on a simulator dataset (stocks, "
               "demos, crowd,\n"
               "                       genomics) instead of a dataset "
               "directory\n"
               "  --method NAME        fusion method (default SLiMFast); one "
               "of SLiMFast,\n"
               "                       SLiMFast-ERM, SLiMFast-EM, Sources-ERM, "
               "Sources-EM,\n"
               "                       MajorityVote, Counts, ACCU, CATD, SSTF, "
               "TruthFinder\n"
               "  --train-fraction F   fraction of labeled objects revealed "
               "(default 0.1)\n"
               "  --seed N             random seed (default 42)\n"
               "  --explain K          print explanations for the K "
               "least-confident objects\n"
               "  --out FILE           write per-object predictions as CSV\n"
               "  --stats              print dataset statistics and exit\n"
               "  --threads N          worker threads (default: "
               "SLIMFAST_THREADS or 1);\n"
               "                       results are identical for every "
               "thread count\n"
               "  --chunks K           replay/loadgen: number of ingest "
               "batches (default 8)\n"
               "  --shards N           serve/loadgen: FusionService shards "
               "(default 4)\n"
               "  --readers R          loadgen: concurrent query threads "
               "(default 4)\n"
               "  --relearn-every K    serve/loadgen: relearn + publish "
               "every K batches\n"
               "                       (default 2)\n"
               "  --dims S O V         serve: universe dimensions when no "
               "dataset is given\n"
               "  --preload            serve: ingest the whole dataset "
               "before reading stdin\n"
               "  --wal-dir DIR        serve: log batches to an observation "
               "WAL in DIR and\n"
               "                       recover checkpoint + WAL tail from "
               "it on startup\n"
               "  --fsync-every N      serve: fsync the WAL "
               "every N batches\n"
               "                       (default 1 = every batch; 0 = "
               "never)\n"
               "  --sched-warm-budget N  warm (has-model) relearns per "
               "decision cycle\n"
               "                       (0 = unlimited; default serve 0, "
               "loadgen 2)\n"
               "  --sched-cold-budget N  cold (first-fit) relearns per "
               "decision cycle\n"
               "                       (0 = unlimited; default serve 0, "
               "loadgen 1)\n"
               "  --sched-max-defer N  cycles a pending shard may lose "
               "before it is\n"
               "                       forced past the budget (default 4)\n"
               "  --shed-queue-watermark F  serve: shed COMMITs (ERR BUSY) "
               "once the ingest\n"
               "                       queue holds >= F of its capacity "
               "(0 = off)\n"
               "  --shed-backlog N     serve: shed COMMITs once the relearn "
               "backlog\n"
               "                       reaches N batches (0 = off)\n"
               "  --event-log FILE     serve: mirror structured events "
               "(EVENTS verb) to\n"
               "                       FILE as JSON lines (default: "
               "$SLIMFAST_EVENT_LOG)\n"
               "  --slo-query-p99 S    serve: HEALTH degrades when query "
               "p99 exceeds S\n"
               "                       seconds (0 = rule off)\n"
               "  --slo-staleness S    serve: HEALTH degrades when any "
               "shard's oldest\n"
               "                       unabsorbed batch is older than S "
               "seconds (0 = off)\n"
               "  --slo-stall S        serve: HEALTH degrades when the "
               "driver heartbeat\n"
               "                       is older than S seconds with work "
               "pending (0 = off)\n"
               "  --slo-queue F        serve: HEALTH degrades when the "
               "ingest queue holds\n"
               "                       >= F of its capacity (0 = off)\n"
               "  --no-verify          loadgen: skip the offline-replay "
               "cross-check\n"
               "  --trace-out FILE     serve/loadgen/replay: write stage "
               "spans as a\n"
               "                       chrome://tracing JSON timeline to "
               "FILE on exit\n"
               "  --help, -h           show this message and exit\n"
               "\n"
               "subcommands:\n"
               "  replay               feed the dataset through a "
               "FusionSession in K\n"
               "                       chunks (delta-compile + warm-start "
               "relearn) and\n"
               "                       report per-chunk latency and the "
               "accuracy\n"
               "                       trajectory vs the one-shot batch run\n"
               "  serve                run a sharded FusionService and "
               "speak the serve\n"
               "                       line protocol (OBS/TRUTH/COMMIT/"
               "QUERY/POSTERIOR/\n"
               "                       STATS/DRAIN/QUIT) over stdin/stdout; "
               "queries are\n"
               "                       wait-free snapshot reads that never "
               "block ingest\n"
               "  loadgen              replay the dataset as a mixed "
               "ingest/query\n"
               "                       workload, report QPS + p50/p95/p99 "
               "query latency,\n"
               "                       and verify the sharded-replay "
               "determinism contract\n");
}

/// One command-line flag: the CliOptions field it sets and the
/// subcommands whose Run* path reads that field. A flag given to any other
/// subcommand is a usage error, so no flag is silently ignored.
struct Flag {
  const char* name;
  unsigned commands;
  std::variant<bool CliOptions::*, std::string CliOptions::*,
               int32_t CliOptions::*, int64_t CliOptions::*,
               uint64_t CliOptions::*, double CliOptions::*,
               std::optional<int32_t> CliOptions::*,
               std::array<int32_t, 3> CliOptions::*>
      field;
};

const Flag kFlags[] = {
    {"--demo", kAllCommands, &CliOptions::demo},
    {"--seed", kAllCommands, &CliOptions::seed},
    {"--threads", kAllCommands, &CliOptions::threads},
    {"--method", kFuse, &CliOptions::method},
    {"--train-fraction", kFuse | kReplay, &CliOptions::train_fraction},
    {"--explain", kFuse, &CliOptions::explain},
    {"--out", kFuse, &CliOptions::out_file},
    {"--stats", kFuse, &CliOptions::stats_only},
    {"--chunks", kReplay | kLoadgen, &CliOptions::chunks},
    {"--trace-out", kSubcommands, &CliOptions::trace_out},
    {"--shards", kServeOrLoadgen, &CliOptions::shards},
    {"--relearn-every", kServeOrLoadgen, &CliOptions::relearn_every},
    {"--sched-warm-budget", kServeOrLoadgen, &CliOptions::sched_warm_budget},
    {"--sched-cold-budget", kServeOrLoadgen, &CliOptions::sched_cold_budget},
    {"--sched-max-defer", kServeOrLoadgen, &CliOptions::sched_max_defer},
    {"--dims", kServe, &CliOptions::dims},
    {"--preload", kServe, &CliOptions::preload},
    {"--wal-dir", kServe, &CliOptions::wal_dir},
    {"--fsync-every", kServe, &CliOptions::fsync_every},
    {"--shed-queue-watermark", kServe, &CliOptions::shed_queue_watermark},
    {"--shed-backlog", kServe, &CliOptions::shed_backlog},
    {"--event-log", kServe, &CliOptions::event_log},
    {"--slo-query-p99", kServe, &CliOptions::slo_query_p99},
    {"--slo-staleness", kServe, &CliOptions::slo_staleness},
    {"--slo-stall", kServe, &CliOptions::slo_stall},
    {"--slo-queue", kServe, &CliOptions::slo_queue},
    {"--quick", kLoadgen, &CliOptions::quick},
    {"--readers", kLoadgen, &CliOptions::readers},
    {"--no-verify", kLoadgen, &CliOptions::no_verify},
};

template <typename... F>
struct Overloaded : F... {
  using F::operator()...;
};

/// Sets `flag`'s field from the values after argv[*i], advancing *i past
/// them. Flag parse failures are one-line errors with an exit code of 2 —
/// never a silent fall-through to the default run or the help text.
bool ParseFlag(const Flag& flag, int argc, char** argv, int* i,
               CliOptions* options) {
  const std::string name = flag.name;
  auto value_of = [&](const char** out) {
    *out = *i + 1 < argc ? argv[++*i] : nullptr;
    return *out != nullptr ||
           UsageError("option '" + name + "' requires a value");
  };
  auto number_of = [&](auto* out) {
    const char* text = nullptr;
    return value_of(&text) && ParseNumber(name, text, out);
  };
  return std::visit(
      Overloaded{
          [&](bool CliOptions::*field) {
            options->*field = true;
            return true;
          },
          [&](std::string CliOptions::*field) {
            const char* text = nullptr;
            if (!value_of(&text)) return false;
            options->*field = text;
            return true;
          },
          [&](std::optional<int32_t> CliOptions::*field) {
            return number_of(&(options->*field).emplace());
          },
          [&](std::array<int32_t, 3> CliOptions::*field) {
            if (*i + 3 >= argc) {
              return UsageError("option '--dims' requires three values: "
                                "S O V");
            }
            for (int32_t& dim : options->*field) {
              if (!ParseNumber(name, argv[++*i], &dim)) return false;
            }
            return true;
          },
          [&](auto CliOptions::*field) {
            return number_of(&(options->*field));
          },
      },
      flag.field);
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  int i = 1;
  // Subcommands are recognized in argv[1] only, so a dataset directory
  // that happens to be named "replay" still works as a later positional
  // (or as "./replay").
  if (argc > 1) {
    const std::string first = argv[1];
    if (first == "replay") options->command = kReplay;
    if (first == "serve") options->command = kServe;
    if (first == "loadgen") options->command = kLoadgen;
    if (options->command != kFuse) ++i;
  }
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      options->help = true;
      return true;
    }
    if (arg.rfind("--", 0) != 0) {
      options->dataset_dir = arg;
      continue;
    }
    const Flag* flag =
        std::find_if(std::begin(kFlags), std::end(kFlags),
                     [&](const Flag& f) { return arg == f.name; });
    if (flag == std::end(kFlags)) {
      return UsageError("unknown option '" + arg + "'");
    }
    if ((flag->commands & options->command) == 0) {
      return UsageError("option '" + arg + "' does not apply to " +
                        CommandName(options->command));
    }
    if (!ParseFlag(*flag, argc, argv, &i, options)) return false;
  }
  // serve can run on bare --dims; replay, loadgen, and plain runs need
  // a dataset.
  if (!options->dataset_dir.empty() || !options->demo.empty() ||
      (options->command == kServe && options->dims[0] >= 0)) {
    return true;
  }
  return UsageError("missing dataset directory, --demo, or subcommand");
}

/// Loads the dataset named on the command line (a --demo simulator or a
/// CSV directory); shared by the fusion, replay, and stats paths.
Result<Dataset> LoadCliDataset(const CliOptions& options) {
  if (!options.demo.empty()) {
    SLIMFAST_ASSIGN_OR_RETURN(SyntheticDataset synth,
                              MakeSimulatorByName(options.demo,
                                                  options.seed));
    return std::move(synth.dataset);
  }
  return LoadDataset(options.dataset_dir);
}


/// The from-scratch alternative the incremental paths are measured
/// against: absorbs the replayed stream chunk by chunk and, per chunk,
/// rebuilds the data-so-far (untimed — both paths share ingestion) and
/// recompiles it from scratch (timed — exactly what DeltaCompile
/// replaces), cross-checking the result bitwise-equal to the
/// delta-maintained instance, so `replay` re-checks the
/// delta-maintenance contract at runtime.
class FullRecompileOracle {
 public:
  FullRecompileOracle(const Dataset& dataset, const ModelConfig& config)
      : dataset_(dataset), config_(config) {}

  /// Absorbs `chunk`, times the from-scratch recompilation into
  /// `*seconds`, and verifies `delta` matches it bitwise. Returns false
  /// (with a note on stderr naming `who`) on a contract violation.
  bool AbsorbAndCheck(const ObservationBatch& chunk,
                      const CompiledInstance& delta, int32_t chunk_index,
                      const char* who, double* seconds) {
    observations_.insert(observations_.end(), chunk.observations.begin(),
                         chunk.observations.end());
    truths_.insert(truths_.end(), chunk.truths.begin(), chunk.truths.end());
    DatasetBuilder builder("recompile-oracle", dataset_.num_sources(),
                           dataset_.num_objects(), dataset_.num_values());
    *builder.mutable_features() = dataset_.features();
    for (const Observation& obs : observations_) {
      SLIMFAST_CHECK_OK(
          builder.AddObservation(obs.object, obs.source, obs.value));
    }
    for (const TruthLabel& label : truths_) {
      SLIMFAST_CHECK_OK(builder.SetTruth(label.object, label.value));
    }
    Dataset grown = std::move(builder).Build().ValueOrDie();
    Stopwatch watch;
    std::shared_ptr<const CompiledInstance> full =
        CompileInstance(grown, config_).ValueOrDie();
    *seconds = watch.ElapsedSeconds();
    if (!BitwiseEqual(delta, *full)) {
      std::fprintf(stderr,
                   "%s: delta-compiled instance differs from full "
                   "recompilation after chunk %d (delta-maintenance "
                   "contract violated)\n",
                   who, chunk_index);
      return false;
    }
    return true;
  }

 private:
  const Dataset& dataset_;
  ModelConfig config_;
  std::vector<Observation> observations_;
  std::vector<TruthLabel> truths_;
};

/// The incremental-fusion trajectory behind `slimfast_cli replay`.
///
/// The dataset is cut into K arrival-order chunks
/// (ChunkDatasetForReplay); truth labels outside the train split are
/// withheld, mirroring the batch evaluation methodology. Each chunk is
/// ingested into a long-lived FusionSession (store splice + delta
/// compilation of the touched rows), a full recompilation of the
/// data-so-far is timed alongside for comparison (and cross-checked
/// bitwise-equal — the delta-maintenance contract), and the session
/// relearns (warm-started from the previous weights after the first
/// chunk). After the last chunk the one-shot batch run provides the
/// accuracy bar.
int RunReplay(const CliOptions& options) {
  auto loaded = LoadCliDataset(options);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load dataset: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  Dataset dataset = std::move(loaded).ValueOrDie();
  Rng rng(options.seed);
  auto split_result = MakeSplit(dataset, options.train_fraction, &rng);
  if (!split_result.ok()) {
    std::fprintf(stderr, "cannot split: %s\n",
                 split_result.status().ToString().c_str());
    return 1;
  }
  TrainTestSplit split = std::move(split_result).ValueOrDie();
  const int32_t num_chunks = std::max<int32_t>(1, options.chunks);

  // Withhold test-object truth from the replay stream.
  std::vector<ObservationBatch> chunks =
      ChunkDatasetForReplay(dataset, num_chunks);
  for (ObservationBatch& chunk : chunks) {
    std::vector<TruthLabel> kept;
    for (const TruthLabel& label : chunk.truths) {
      if (split.IsTrain(label.object)) kept.push_back(label);
    }
    chunk.truths = std::move(kept);
  }

  FusionSessionOptions session_options;
  session_options.seed = options.seed;
  session_options.slimfast.exec.threads = options.threads;
  auto session_result = FusionSession::Create(
      dataset.num_sources(), dataset.num_objects(), dataset.num_values(),
      session_options, dataset.features());
  if (!session_result.ok()) {
    std::fprintf(stderr, "cannot create session: %s\n",
                 session_result.status().ToString().c_str());
    return 1;
  }
  FusionSession session = std::move(session_result).ValueOrDie();

  std::printf("slimfast replay: %s in %d chunks (%lld observations, "
              "train fraction %.3f, seed %llu)\n",
              dataset.name().empty() ? "dataset" : dataset.name().c_str(),
              num_chunks,
              static_cast<long long>(dataset.num_observations()),
              options.train_fraction,
              static_cast<unsigned long long>(options.seed));
  std::printf("  chunk  obs_total  ingest_delta  full_recompile  relearn   "
              "session_acc\n");

  // Cumulative stream state for the full-recompile comparison and the
  // observed-so-far accuracy denominators.
  std::vector<uint8_t> observed(static_cast<size_t>(dataset.num_objects()),
                                0);
  FullRecompileOracle oracle(dataset, session_options.slimfast.model);

  auto observed_test_accuracy = [&]() {
    int64_t evaluated = 0;
    int64_t correct = 0;
    for (ObjectId o : split.test_objects) {
      if (!observed[static_cast<size_t>(o)]) continue;
      ++evaluated;
      if (session.Query(o) == dataset.Truth(o)) ++correct;
    }
    return evaluated == 0 ? 0.0
                          : static_cast<double>(correct) /
                                static_cast<double>(evaluated);
  };

  double total_delta_seconds = 0.0;
  double total_full_seconds = 0.0;
  double total_relearn_seconds = 0.0;
  for (int32_t c = 0; c < num_chunks; ++c) {
    const ObservationBatch& chunk = chunks[static_cast<size_t>(c)];
    auto ingest = session.Ingest(chunk);
    if (!ingest.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n",
                   ingest.status().ToString().c_str());
      return 1;
    }
    total_delta_seconds += ingest.ValueOrDie().seconds;

    double full_seconds = 0.0;
    if (!oracle.AbsorbAndCheck(chunk, *session.instance(), c, "replay",
                               &full_seconds)) {
      return 1;
    }
    total_full_seconds += full_seconds;

    auto relearn = session.Relearn();
    if (!relearn.ok()) {
      std::fprintf(stderr, "relearn failed: %s\n",
                   relearn.status().ToString().c_str());
      return 1;
    }
    RelearnStats relearn_stats = relearn.ValueOrDie();
    total_relearn_seconds += relearn_stats.seconds;

    for (const Observation& obs : chunk.observations) {
      observed[static_cast<size_t>(obs.object)] = 1;
    }

    std::printf("  %5d  %9lld  %10.4fs  %12.4fs  %6.3fs%s  %11.4f\n", c + 1,
                static_cast<long long>(session.num_observations()),
                ingest.ValueOrDie().seconds, full_seconds,
                relearn_stats.seconds,
                relearn_stats.warm_started ? " (warm)" : " (cold)",
                observed_test_accuracy());
  }

  // The accuracy bar: the one-shot batch run on the full dataset.
  SlimFastOptions batch_options;
  batch_options.exec.threads = options.threads;
  auto batch_method = MakeSlimFast(batch_options);
  auto batch_output = batch_method->Run(dataset, split, options.seed);
  if (!batch_output.ok()) {
    std::fprintf(stderr, "batch run failed: %s\n",
                 batch_output.status().ToString().c_str());
    return 1;
  }
  // One denominator for the final comparison: every test object, with
  // never-observed objects counting against both (kNoValue for the
  // session).
  double batch_accuracy =
      TestAccuracy(dataset, batch_output.ValueOrDie().predicted_values,
                   split)
          .ValueOrDie();
  double final_session_accuracy =
      TestAccuracy(dataset, session.predictions(), split).ValueOrDie();

  std::printf("\nFinal held-out accuracy: session %.4f, one-shot batch "
              "%.4f\n",
              final_session_accuracy, batch_accuracy);
  std::printf("Compilation: %.4fs delta total vs %.4fs full-recompile "
              "total (%.2fx, bit-identical every chunk)\n",
              total_delta_seconds, total_full_seconds,
              total_delta_seconds > 0.0
                  ? total_full_seconds / total_delta_seconds
                  : 0.0);
  std::printf("Relearning: %.4fs total over %d warm-started relearns "
              "(one-shot batch learn: %.4fs)\n",
              total_relearn_seconds, num_chunks,
              batch_output.ValueOrDie().learn_seconds);
  return 0;
}

/// The `serve` subcommand: a sharded FusionService speaking the line
/// protocol over stdin/stdout. The universe comes from a dataset (whose
/// observations are only ingested with --preload) or bare --dims;
/// everything else arrives as OBS/TRUTH/COMMIT commands. The banner and
/// diagnostics go to stderr so stdout stays protocol-pure (one reply
/// line per command line), which makes the command scriptable:
/// `printf 'QUERY 3\nQUIT\n' | slimfast_cli serve --demo crowd --preload`.
int RunServe(const CliOptions& options) {
  int32_t num_sources = options.dims[0];
  int32_t num_objects = options.dims[1];
  int32_t num_values = options.dims[2];
  FeatureSpace features;
  Dataset dataset;
  bool have_dataset = false;
  if (!options.demo.empty() || !options.dataset_dir.empty()) {
    auto loaded = LoadCliDataset(options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load dataset: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    dataset = std::move(loaded).ValueOrDie();
    num_sources = dataset.num_sources();
    num_objects = dataset.num_objects();
    num_values = dataset.num_values();
    features = dataset.features();
    have_dataset = true;
  } else if (num_sources < 0 || num_objects < 0 || num_values < 1) {
    std::fprintf(stderr,
                 "slimfast_cli: serve needs a dataset directory, --demo, "
                 "or --dims S O V (run 'slimfast_cli --help' for usage)\n");
    return 2;
  }

  FusionServiceOptions service_options;
  service_options.num_shards = options.shards;
  service_options.relearn_every_batches = options.relearn_every;
  service_options.session.seed = options.seed;
  service_options.shard_exec.threads = options.threads;
  SchedulerOptions& sched = service_options.scheduler;
  sched.warm_budget_per_cycle =
      options.sched_warm_budget.value_or(sched.warm_budget_per_cycle);
  sched.cold_budget_per_cycle =
      options.sched_cold_budget.value_or(sched.cold_budget_per_cycle);
  sched.max_deferred_cycles =
      options.sched_max_defer.value_or(sched.max_deferred_cycles);
  sched.shed_queue_watermark = options.shed_queue_watermark;
  sched.shed_backlog_watermark = options.shed_backlog;
  service_options.slo.query_p99_ceiling_seconds = options.slo_query_p99;
  service_options.slo.staleness_ceiling_seconds = options.slo_staleness;
  service_options.slo.relearn_stall_seconds = options.slo_stall;
  service_options.slo.queue_high_water = options.slo_queue;
  if (!options.event_log.empty()) {
    obs::EventLog::Global().SetMirrorFile(options.event_log);
  }
  if (!options.wal_dir.empty()) {
    service_options.durability.wal_dir = options.wal_dir;
    service_options.durability.wal = WalOptionsFor(options.fsync_every);
  }
  auto created = FusionService::Create(num_sources, num_objects, num_values,
                                       service_options, features);
  if (!created.ok()) {
    std::fprintf(stderr, "cannot create service: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<FusionService> service = std::move(created).ValueOrDie();
  if (!options.wal_dir.empty()) {
    std::fprintf(stderr,
                 "durable: WAL + checkpoints in %s (recovered state is "
                 "bit-identical to the acknowledged prefix)\n",
                 options.wal_dir.c_str());
  }

  if (options.preload && have_dataset) {
    std::vector<ObservationBatch> all = ChunkDatasetForReplay(dataset, 1);
    const long long preloaded =
        static_cast<long long>(all[0].observations.size());
    SLIMFAST_CHECK_OK(service->Submit(std::move(all[0])));
    SLIMFAST_CHECK_OK(service->Drain());
    std::fprintf(stderr, "preloaded %lld observations\n", preloaded);
  }

  std::fprintf(stderr,
               "slimfast serve: %d sources, %d objects, %d values across "
               "%d shard(s); relearn every %d batch(es), budgets per "
               "cycle warm %d / cold %d (0 = unlimited)\n"
               "commands: OBS TRUTH COMMIT QUERY POSTERIOR STATS METRICS "
               "HEALTH HISTORY EVENTS SLOW SCHED CHECKPOINT DRAIN QUIT\n",
               num_sources, num_objects, num_values, service->num_shards(),
               options.relearn_every, sched.warm_budget_per_cycle,
               sched.cold_budget_per_cycle);
  if (sched.admission_enabled()) {
    std::fprintf(stderr,
                 "admission control: shedding COMMITs at queue watermark "
                 "%.2f / backlog %lld (ERR BUSY + retry hint)\n",
                 sched.shed_queue_watermark,
                 static_cast<long long>(sched.shed_backlog_watermark));
  }
  {
    const obs::SloWatchdogOptions& slo = service_options.slo;
    if (slo.query_p99_ceiling_seconds > 0.0 ||
        slo.staleness_ceiling_seconds > 0.0 ||
        slo.relearn_stall_seconds > 0.0 || slo.queue_high_water > 0.0) {
      std::fprintf(stderr,
                   "slo watchdog: query_p99 %.3gs, staleness %.3gs, "
                   "stall %.3gs, queue %.2f (0 = rule off; HEALTH "
                   "reports breaches)\n",
                   slo.query_p99_ceiling_seconds,
                   slo.staleness_ceiling_seconds, slo.relearn_stall_seconds,
                   slo.queue_high_water);
    }
  }

  LineProtocol protocol(service.get());
  std::string line;
  bool quit = false;
  while (!quit && std::getline(std::cin, line)) {
    std::printf("%s\n", protocol.HandleLine(line, &quit).c_str());
    std::fflush(stdout);
  }
  service->Stop();
  return 0;
}

/// The `loadgen` subcommand: mixed ingest/query workload against a
/// FusionService, QPS + latency percentiles on stdout, and the
/// offline-replay cross-check. Non-zero exit on a failed cross-check, any
/// out-of-universe read, or a failed overhead or scheduler gate.
int RunLoadgenCli(const CliOptions& options) {
  auto loaded = LoadCliDataset(options);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load dataset: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  Dataset dataset = std::move(loaded).ValueOrDie();

  LoadgenOptions loadgen_options;
  loadgen_options.num_shards = options.shards;
  // --quick is the CI-sized scenario: fewer chunks/readers and a smaller
  // latency sample, same phases, same gates.
  loadgen_options.num_chunks = options.quick ? 6 : options.chunks;
  loadgen_options.reader_threads = options.quick ? 2 : options.readers;
  loadgen_options.min_queries_per_reader = options.quick ? 500 : 5000;
  loadgen_options.relearn_every_batches = options.relearn_every;
  loadgen_options.seed = options.seed;
  loadgen_options.verify = !options.no_verify;
  loadgen_options.exec.threads = options.threads;

  std::printf("slimfast loadgen: %s%s — %d chunks, %d shards, %d readers, "
              "relearn every %d\n",
              dataset.name().empty() ? "dataset" : dataset.name().c_str(),
              options.quick ? " [quick]" : "", loadgen_options.num_chunks,
              loadgen_options.num_shards, loadgen_options.reader_threads,
              loadgen_options.relearn_every_batches);

  auto run = RunLoadgen(dataset, loadgen_options);
  if (!run.ok()) {
    std::fprintf(stderr, "loadgen failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  const LoadgenReport& report = run.ValueOrDie();

  std::printf("  ingest: %lld observations + %lld truths in %d batches, "
              "%.3fs wall (%lld relearns, %lld publishes)\n",
              static_cast<long long>(report.observations),
              static_cast<long long>(report.truths), report.num_chunks,
              report.ingest_wall_seconds,
              static_cast<long long>(report.relearns),
              static_cast<long long>(report.publishes));
  std::printf("  queries: %lld total, %.0f QPS over %.3fs (%d readers, "
              "wait-free reads during ingest/relearn)\n",
              static_cast<long long>(report.total_queries), report.qps,
              report.run_wall_seconds, report.reader_threads);
  std::printf("  query latency: p50 %.1fus, p95 %.1fus, p99 %.1fus, max "
              "%.1fus\n",
              report.query_latency.p50 * 1e6,
              report.query_latency.p95 * 1e6,
              report.query_latency.p99 * 1e6,
              report.query_latency.max * 1e6);
  std::printf("  accuracy (merged predictions vs replayed truth): %.4f\n",
              report.accuracy);
  if (report.verify_ran) {
    std::printf("  offline cross-check: final sharded snapshots %s the "
                "offline single-session replay\n",
                report.verified ? "bit-identical to" : "DIFFER from");
  }
  if (report.invalid_reads > 0) {
    std::fprintf(stderr, "loadgen: %lld out-of-universe reads\n",
                 static_cast<long long>(report.invalid_reads));
  }
  if (report.overhead_ran) {
    std::printf("  obs overhead: query p99 %.2fus metrics-off vs %.2fus "
                "metrics-on (gate: <5%% or 100ns — %s)\n",
                report.overhead_base_p99_seconds * 1e6,
                report.overhead_obs_p99_seconds * 1e6,
                report.overhead_gate_passed ? "passed" : "FAILED");
  }

  // --- Skewed (Zipfian) scheduler scenario: same chunks, same pacing,
  // same thread budget, unlimited vs budgeted relearns; the gate is the
  // hot-shard version lag and the relearn count. ---
  SkewedLoadgenOptions skew_options;
  skew_options.num_shards = options.quick ? 8 : 12;
  skew_options.num_chunks = options.quick ? 8 : 16;
  skew_options.reader_threads = 2;
  skew_options.writer_pause_ms = options.quick ? 3 : 5;
  skew_options.min_queries_per_chunk = options.quick ? 100 : 200;
  skew_options.seed = options.seed;
  skew_options.verify = !options.no_verify;
  SchedulerOptions& budgeted = skew_options.scheduler;
  budgeted.warm_budget_per_cycle =
      options.sched_warm_budget.value_or(budgeted.warm_budget_per_cycle);
  budgeted.cold_budget_per_cycle =
      options.sched_cold_budget.value_or(budgeted.cold_budget_per_cycle);
  budgeted.max_deferred_cycles =
      options.sched_max_defer.value_or(budgeted.max_deferred_cycles);
  skew_options.exec.threads = options.threads;
  auto skew_run = RunSkewedLoadgen(dataset, skew_options);
  if (!skew_run.ok()) {
    std::fprintf(stderr, "skewed scenario failed: %s\n",
                 skew_run.status().ToString().c_str());
    return 1;
  }
  const SkewedLoadgenReport& skew = skew_run.ValueOrDie();
  std::printf("  skewed scenario: hot shard %d holds %.0f%% of the Zipf "
              "query mass (%d shards, %d chunks)\n",
              skew.hot_shard, skew.hot_shard_mass * 100.0,
              skew_options.num_shards, skew_options.num_chunks);
  auto print_phase = [](const char* name, const PolicyPhaseReport& phase) {
    std::printf("    %-10s hot version lag %.2f mean / %.0f max cycles, "
                "%lld relearns (staleness p50/p99 %.2f/%.2f ms over %lld "
                "samples, %lld queries, %.3fs)\n",
                name, phase.hot_version_lag_mean, phase.hot_version_lag_max,
                static_cast<long long>(phase.relearns),
                phase.hot_staleness.p50 * 1e3,
                phase.hot_staleness.p99 * 1e3,
                static_cast<long long>(phase.hot_staleness.count),
                static_cast<long long>(phase.total_queries),
                phase.wall_seconds);
  };
  print_phase("unlimited:", skew.flat);
  print_phase("budgeted:", skew.sched);
  std::printf("    gate (unlimited lag 0, budgeted max lag within deferral "
              "bound, fewer relearns): %s\n",
              skew.gate_passed ? "passed" : "FAILED");
  std::printf("    admission: %lld batch(es) shed, retry hint %lld ms\n",
              static_cast<long long>(skew.admission_sheds),
              static_cast<long long>(skew.shed_retry_hint_ms));
  if (skew.flat.verify_ran || skew.sched.verify_ran) {
    std::printf("    offline cross-check: unlimited %s, budgeted "
                "(recorded schedule) %s\n",
                skew.flat.verified ? "bit-identical" : "DIFFERS",
                skew.sched.verified ? "bit-identical" : "DIFFERS");
  }

  if (report.overhead_ran && !report.overhead_gate_passed) {
    std::fprintf(stderr,
                 "loadgen: observability overhead gate FAILED (p99 %.3fus "
                 "-> %.3fus, budget 5%% + 100ns floor)\n",
                 report.overhead_base_p99_seconds * 1e6,
                 report.overhead_obs_p99_seconds * 1e6);
  }
  if (!skew.gate_passed) {
    std::fprintf(stderr,
                 "loadgen: skewed scheduler gate FAILED (hot version lag: "
                 "unlimited mean %.3f [must be 0], budgeted max %.0f "
                 "[bound %d], relearns: budgeted %lld vs unlimited %lld "
                 "[must be fewer])\n",
                 skew.flat.hot_version_lag_mean,
                 skew.sched.hot_version_lag_max,
                 skew_options.scheduler.max_deferred_cycles,
                 static_cast<long long>(skew.sched.relearns),
                 static_cast<long long>(skew.flat.relearns));
  }
  const bool skew_verified =
      (!skew.flat.verify_ran || skew.flat.verified) &&
      (!skew.sched.verify_ran || skew.sched.verified);
  const bool ok = (!report.verify_ran || report.verified) &&
                  report.invalid_reads == 0 &&
                  (!report.overhead_ran || report.overhead_gate_passed) &&
                  skew.gate_passed && skew_verified;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  // ParseArgs reports its own one-line error + usage hint.
  if (!ParseArgs(argc, argv, &options)) return 2;
  if (options.help) {
    PrintUsage(stdout);
    return 0;
  }
  // A positional without a meta.csv is a typoed subcommand or not a
  // dataset directory (like the source tree's bench/) — fail fast with a
  // hint instead of falling through to "cannot load dataset".
  if (!options.dataset_dir.empty() && options.demo.empty() &&
      !std::filesystem::exists(options.dataset_dir + "/meta.csv")) {
    std::fprintf(stderr,
                 "slimfast_cli: unknown subcommand or dataset directory "
                 "'%s' (run 'slimfast_cli --help' for usage)\n",
                 options.dataset_dir.c_str());
    return 2;
  }
  if (options.command != kFuse) {
    // --trace-out: record stage spans for the whole run and dump the
    // chrome://tracing timeline on the way out (load it via
    // chrome://tracing or https://ui.perfetto.dev).
    const bool tracing = !options.trace_out.empty();
    if (tracing) obs::TraceRecorder::Global().Enable();
    int rc = options.command == kServe     ? RunServe(options)
             : options.command == kLoadgen ? RunLoadgenCli(options)
                                           : RunReplay(options);
    if (tracing) {
      obs::TraceRecorder::Global().Disable();
      if (obs::TraceRecorder::Global().WriteChromeTrace(options.trace_out)) {
        std::fprintf(stderr, "trace: %zu spans written to %s\n",
                     obs::TraceRecorder::Global().EventCount(),
                     options.trace_out.c_str());
      } else {
        std::fprintf(stderr, "cannot write trace to %s\n",
                     options.trace_out.c_str());
        if (rc == 0) rc = 1;
      }
    }
    return rc;
  }

  // --- Load or generate the dataset. ---
  auto loaded = LoadCliDataset(options);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load dataset: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  Dataset dataset = std::move(loaded).ValueOrDie();

  DatasetStats stats = ComputeStats(dataset);
  std::printf("%s", stats.ToString().c_str());
  if (options.stats_only) return 0;

  // --- Split and run. ---
  SlimFastOptions method_options;
  method_options.exec.threads = options.threads;
  auto method = MakeMethodByName(options.method, method_options);
  if (!method.ok()) {
    std::fprintf(stderr, "%s\n", method.status().ToString().c_str());
    return 1;
  }
  Rng rng(options.seed);
  auto split_result = MakeSplit(dataset, options.train_fraction, &rng);
  if (!split_result.ok()) {
    std::fprintf(stderr, "cannot split: %s\n",
                 split_result.status().ToString().c_str());
    return 1;
  }
  TrainTestSplit split = std::move(split_result).ValueOrDie();

  auto output_result =
      method.ValueOrDie()->Run(dataset, split, options.seed);
  if (!output_result.ok()) {
    std::fprintf(stderr, "fusion failed: %s\n",
                 output_result.status().ToString().c_str());
    return 1;
  }
  const FusionOutput& output = output_result.ValueOrDie();

  std::printf("\nMethod: %s\n", output.method_name.c_str());
  if (!output.detail.empty()) {
    std::printf("Detail: %s\n", output.detail.c_str());
  }
  std::printf("Runtime: %.3fs (learn %.3fs, infer %.3fs)\n",
              output.TotalSeconds(), output.learn_seconds,
              output.infer_seconds);
  auto accuracy = TestAccuracy(dataset, output.predicted_values, split);
  if (accuracy.ok()) {
    std::printf("Held-out object-value accuracy: %.4f (on %zu objects)\n",
                accuracy.ValueOrDie(), split.test_objects.size());
  }
  auto src_error =
      WeightedSourceAccuracyError(dataset, output.source_accuracies);
  if (src_error.ok()) {
    std::printf("Weighted source-accuracy error: %.4f\n",
                src_error.ValueOrDie());
  }

  // --- Optional CSV dump. ---
  if (!options.out_file.empty()) {
    CsvTable table({"object", "predicted_value"});
    for (ObjectId o = 0; o < dataset.num_objects(); ++o) {
      ValueId v = output.predicted_values[static_cast<size_t>(o)];
      if (v == kNoValue) continue;
      SLIMFAST_CHECK_OK(
          table.AppendRow({std::to_string(o), std::to_string(v)}));
    }
    Status st = table.WriteFile(options.out_file);
    if (!st.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n",
                   options.out_file.c_str(), st.ToString().c_str());
      return 1;
    }
    std::printf("Predictions written to %s (%zu rows)\n",
                options.out_file.c_str(), table.num_rows());
  }

  // --- Optional explanations for the least-confident objects. ---
  if (options.explain > 0) {
    SlimFastOptions sf_options;
    sf_options.exec.threads = options.threads;
    if (options.method == "Sources-ERM" ||
        options.method == "Sources-EM") {
      sf_options.model.use_feature_weights = false;
    }
    SlimFast slimfast(sf_options, "explainer");
    auto fit = slimfast.Fit(dataset, split, options.seed);
    if (fit.ok()) {
      const SlimFastModel& model = fit.ValueOrDie().model;
      // Rank observed objects by posterior confidence, ascending.
      std::vector<std::pair<double, ObjectId>> ranked;
      std::vector<double> probs;
      for (ObjectId o = 0; o < dataset.num_objects(); ++o) {
        if (!model.PosteriorOf(o, &probs)) continue;
        double top = 0.0;
        for (double p : probs) top = std::max(top, p);
        ranked.emplace_back(top, o);
      }
      std::sort(ranked.begin(), ranked.end());
      std::printf("\n%d least-confident fusion decisions:\n",
                  options.explain);
      for (int32_t i = 0;
           i < options.explain && i < static_cast<int32_t>(ranked.size());
           ++i) {
        auto explanation =
            ExplainObject(model, dataset, ranked[static_cast<size_t>(i)].second);
        if (explanation.ok()) {
          std::printf("%s\n", explanation.ValueOrDie().ToString().c_str());
        }
      }
    }
  }
  return 0;
}

// slimfast_cli — run data fusion on a dataset directory from the shell.
//
// `slimfast_cli --help` prints the usage, rendered from kCommands and
// kFlags below.
//
// The dataset directory uses the CSV layout of data/io.h (meta.csv,
// observations.csv, truth.csv, features.csv, source_features.csv) — the
// same format SaveDataset writes.
//
// A flag applies only to the subcommands that read it (its kFlags scope);
// given to any other, it is a one-line usage error with exit code 2.

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

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

/// Each command's name on the command line ("" for the plain fusion run)
/// and its --help summary, in the order --help lists them.
constexpr struct {
  Command command;
  const char* name;
  const char* summary;
} kCommands[] = {
    {kFuse, "",
     "fit a fusion method on the dataset and report held-out accuracy"},
    {kReplay, "replay",
     "feed the dataset through a FusionSession in chunks (delta-compile + "
     "warm-start relearn), check every chunk's delta compilation against a "
     "full recompile, and report per-chunk latency and the accuracy "
     "trajectory vs the one-shot batch run"},
    {kServe, "serve",
     "run a sharded FusionService and speak the serve line protocol over "
     "stdin/stdout; queries are wait-free snapshot reads that never block "
     "ingest"},
    {kLoadgen, "loadgen",
     "replay the dataset as a mixed ingest/query workload, report QPS + "
     "p50/p95/p99 query latency, gate the metrics overhead on query p99, "
     "and verify the sharded-replay determinism contract"},
};

const char* CommandName(Command command) {
  for (const auto& info : kCommands) {
    if (info.command == command && info.name[0] != '\0') return info.name;
  }
  return "a fusion run";
}

/// The parsed command line. Each field is set by the kFlags row that
/// documents it; the initializers are the defaults --help states.
struct CliOptions {
  Command command = kFuse;
  std::string dataset_dir;
  bool help = false;
  std::string demo;
  std::string method = "SLiMFast";
  double train_fraction = 0.1;
  uint64_t seed = 42;
  int32_t explain = 0;
  std::string out_file;
  bool stats_only = false;
  /// 0 defers to SLIMFAST_THREADS (default 1).
  int32_t threads = 0;
  bool quick = false;
  int32_t chunks = 8;
  int32_t shards = 4;
  int32_t readers = 4;
  int32_t relearn_every = 2;
  /// (sources, objects, values); -1 = not given.
  std::array<int32_t, 3> dims = {-1, -1, -1};
  bool preload = false;
  /// "" = in-memory only.
  std::string wal_dir;
  /// 1 = WalFsync::kEveryBatch, 0 = WalFsync::kNone.
  int32_t fsync_every = 1;
  /// "" = tracing off.
  std::string trace_out;
  /// 0 = no backlog watermark.
  int64_t shed_backlog = 0;
  /// "" defers to the SLIMFAST_EVENT_LOG env var; both empty = in-memory
  /// ring only.
  std::string event_log;
  /// SLO watchdog ceilings; 0 disables the rule (see HEALTH).
  double slo_query_p99 = 0.0;
  double slo_staleness = 0.0;
  double slo_stall = 0.0;
  double slo_queue = 0.0;
};

/// One command-line flag: its name and metavar ("" for a switch), the
/// subcommands whose Run* path reads it, the CliOptions field it sets,
/// and its --help line. A flag given to any other subcommand is a usage
/// error, so no flag is silently ignored.
struct Flag {
  const char* name;
  const char* metavar;
  unsigned commands;
  std::variant<bool CliOptions::*, std::string CliOptions::*,
               int32_t CliOptions::*, int64_t CliOptions::*,
               uint64_t CliOptions::*, double CliOptions::*,
               std::array<int32_t, 3> CliOptions::*>
      field;
  const char* help;
};

/// Every flag, in the order --help lists them. The synopses show the rows
/// that name a command's data (NamesData) beside <dataset_dir>.
const Flag kFlags[] = {
    {"--demo", "NAME", kAllCommands, &CliOptions::demo,
     "run on a simulator dataset (stocks, demos, crowd, genomics) instead "
     "of a dataset directory"},
    {"--dims", "S O V", kServe, &CliOptions::dims,
     "universe dimensions when no dataset is given"},
    {"--chunks", "K", kReplay | kLoadgen, &CliOptions::chunks,
     "number of ingest batches (default 8)"},
    {"--method", "NAME", kFuse, &CliOptions::method,
     "fusion method (default SLiMFast); one of SLiMFast, SLiMFast-ERM, "
     "SLiMFast-EM, Sources-ERM, Sources-EM, MajorityVote, Counts, ACCU, "
     "CATD, SSTF, TruthFinder"},
    {"--train-fraction", "F", kFuse | kReplay, &CliOptions::train_fraction,
     "fraction of labeled objects revealed (default 0.1)"},
    {"--explain", "K", kFuse, &CliOptions::explain,
     "print explanations for the K least-confident objects (SLiMFast "
     "methods only)"},
    {"--out", "FILE", kFuse, &CliOptions::out_file,
     "write per-object predictions as CSV"},
    {"--stats", "", kFuse, &CliOptions::stats_only,
     "print dataset statistics and exit"},
    {"--shards", "N", kServeOrLoadgen, &CliOptions::shards,
     "FusionService shards (default 4)"},
    {"--relearn-every", "K", kServeOrLoadgen, &CliOptions::relearn_every,
     "relearn + publish every K batches (default 2)"},
    {"--preload", "", kServe, &CliOptions::preload,
     "ingest the whole dataset before reading stdin"},
    {"--wal-dir", "DIR", kServe, &CliOptions::wal_dir,
     "log batches to an observation WAL in DIR and recover checkpoint + "
     "WAL tail from it on startup"},
    {"--fsync-every", "N", kServe, &CliOptions::fsync_every,
     "fsync the WAL after every batch (1, the default) or never (0)"},
    {"--shed-backlog", "N", kServe, &CliOptions::shed_backlog,
     "shed COMMITs (ERR BUSY) once the relearn backlog reaches N batches "
     "(0 = off)"},
    {"--event-log", "FILE", kServe, &CliOptions::event_log,
     "mirror structured events (EVENTS verb) to FILE as JSON lines "
     "(default: $SLIMFAST_EVENT_LOG)"},
    {"--slo-query-p99", "S", kServe, &CliOptions::slo_query_p99,
     "HEALTH degrades when query p99 exceeds S seconds (0 = rule off)"},
    {"--slo-staleness", "S", kServe, &CliOptions::slo_staleness,
     "HEALTH degrades when any shard's oldest unabsorbed batch is older "
     "than S seconds (0 = off)"},
    {"--slo-stall", "S", kServe, &CliOptions::slo_stall,
     "HEALTH degrades when the driver heartbeat is older than S seconds "
     "with work pending (0 = off)"},
    {"--slo-queue", "F", kServe, &CliOptions::slo_queue,
     "HEALTH degrades when the ingest queue holds >= F of its capacity "
     "(0 = off)"},
    {"--quick", "", kLoadgen, &CliOptions::quick,
     "shrink the scenario to CI size (same gates)"},
    {"--readers", "R", kLoadgen, &CliOptions::readers,
     "concurrent query threads (default 4)"},
    {"--trace-out", "FILE", kSubcommands, &CliOptions::trace_out,
     "write stage spans as a chrome://tracing JSON timeline to FILE on "
     "exit"},
    {"--seed", "N", kAllCommands, &CliOptions::seed,
     "random seed (default 42)"},
    {"--threads", "N", kAllCommands, &CliOptions::threads,
     "worker threads (default: SLIMFAST_THREADS or 1); results are "
     "identical for every thread count"},
};

/// Whether `flag` names the data a command runs on (see kFlags).
bool NamesData(const Flag& flag) {
  return flag.field == decltype(Flag::field){&CliOptions::demo} ||
         flag.field == decltype(Flag::field){&CliOptions::dims};
}

/// "--flag META", or the bare name of a switch.
std::string FlagSpec(const Flag& flag) {
  return flag.metavar[0] == '\0'
             ? std::string(flag.name)
             : std::string(flag.name) + " " + flag.metavar;
}

/// Prints `head` followed by `words`, filling lines to 79 columns. The
/// first word starts at column `indent` at the earliest, and so do the
/// continuation lines.
void PrintFilled(std::FILE* stream, const std::string& head, size_t indent,
                 const std::vector<std::string>& words) {
  constexpr size_t kWidth = 79;
  std::fputs(head.c_str(), stream);
  size_t column = head.size();
  size_t gap = column < indent ? indent - column : 1;
  for (size_t i = 0; i < words.size(); ++i) {
    if (i > 0 && column + gap + words[i].size() > kWidth) {
      std::fputc('\n', stream);
      column = 0;
      gap = indent;
    }
    std::fprintf(stream, "%*s%s", static_cast<int>(gap), "",
                 words[i].c_str());
    column += gap + words[i].size();
    gap = 1;
  }
  std::fputc('\n', stream);
}

std::vector<std::string> Words(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> words;
  for (std::string word; in >> word;) words.push_back(word);
  return words;
}

/// The --help text: one synopsis per command and one line per flag, both
/// from kFlags, then the command summaries from kCommands.
void PrintUsage(std::FILE* stream) {
  constexpr size_t kSynopsisIndent = 20;  // past "usage: slimfast_cli "
  constexpr size_t kHelpIndent = 23;
  for (const auto& info : kCommands) {
    std::vector<std::string> words;
    if (info.name[0] != '\0') words.push_back(info.name);
    std::string data = "(<dataset_dir>";
    for (const Flag& flag : kFlags) {
      if ((flag.commands & info.command) && NamesData(flag)) {
        data += " | " + FlagSpec(flag);
      }
    }
    words.push_back(data + ")");
    for (const Flag& flag : kFlags) {
      if ((flag.commands & info.command) && !NamesData(flag)) {
        words.push_back(std::string("[").append(FlagSpec(flag)).append("]"));
      }
    }
    PrintFilled(stream,
                info.command == kFuse ? "usage: slimfast_cli"
                                      : "       slimfast_cli",
                kSynopsisIndent, words);
  }
  std::fprintf(stream, "\noptions:\n");
  for (const Flag& flag : kFlags) {
    // A flag a plain fusion run does not read is prefixed with the
    // subcommands that do.
    std::string scope;
    for (const auto& info : kCommands) {
      if ((flag.commands & kFuse) || !(flag.commands & info.command)) {
        continue;
      }
      if (!scope.empty()) scope += '/';
      scope += info.name;
    }
    PrintFilled(stream, "  " + FlagSpec(flag), kHelpIndent,
                Words((scope.empty() ? "" : scope + ": ") + flag.help));
  }
  PrintFilled(stream, "  --help, -h", kHelpIndent,
              Words("show this message and exit"));
  std::fprintf(stream, "\ncommands:\n");
  for (const auto& info : kCommands) {
    PrintFilled(stream,
                "  " + std::string(info.command == kFuse ? "(none)"
                                                         : info.name),
                kHelpIndent, Words(info.summary));
  }
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
          [&](std::array<int32_t, 3> CliOptions::*field) {
            if (*i + 3 >= argc) {
              return UsageError("option '" + name +
                                "' requires three values: " + flag.metavar);
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
    for (const auto& info : kCommands) {
      if (info.name[0] != '\0' && std::strcmp(argv[1], info.name) == 0) {
        options->command = info.command;
        ++i;
      }
    }
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
  for (const auto& [name, value] :
       {std::pair{"--relearn-every", options->relearn_every},
        std::pair{"--fsync-every", options->fsync_every}}) {
    if (value < 0) {
      return UsageError("option '" + std::string(name) +
                        "' expects a count >= 0, got " +
                        std::to_string(value));
    }
  }
  if (options->fsync_every > 1) {
    return UsageError("option '--fsync-every' expects 0 or 1, got " +
                      std::to_string(options->fsync_every));
  }
  // serve can run on bare dimensions; replay, loadgen, and plain runs
  // need a dataset.
  if (!options->dataset_dir.empty() || !options->demo.empty()) return true;
  if (options->command != kServe) {
    return UsageError("missing dataset directory, --demo, or subcommand");
  }
  const std::array<int32_t, 3>& dims = options->dims;
  if (dims[0] >= 0 && dims[1] >= 0 && dims[2] >= 1) return true;
  return UsageError("serve needs a dataset directory, --demo, or --dims S O V");
}

/// Loads the dataset named on the command line (a simulator or a CSV
/// directory); shared by the fusion, replay, and stats paths.
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
/// observations are ingested only on request) or bare dimensions;
/// everything else arrives as OBS/TRUTH/COMMIT commands. With a WAL
/// directory the service logs every batch before applying it, CHECKPOINT
/// persists per-shard snapshots there, and a restart on the same
/// directory recovers the acknowledged state, kill -9 included. The
/// banner and diagnostics go to stderr so stdout stays protocol-pure (one
/// reply line per command line), which makes the command scriptable.
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
  }

  FusionServiceOptions service_options;
  service_options.num_shards = options.shards;
  service_options.relearn_every_batches = options.relearn_every;
  service_options.session.seed = options.seed;
  service_options.shard_exec.threads = options.threads;
  service_options.shed_backlog_watermark = options.shed_backlog;
  service_options.slo.query_p99_ceiling_seconds = options.slo_query_p99;
  service_options.slo.staleness_ceiling_seconds = options.slo_staleness;
  service_options.slo.relearn_stall_seconds = options.slo_stall;
  service_options.slo.queue_high_water = options.slo_queue;
  if (!options.event_log.empty()) {
    obs::EventLog::Global().SetMirrorFile(options.event_log);
  }
  if (!options.wal_dir.empty()) {
    service_options.durability.wal_dir = options.wal_dir;
    service_options.durability.wal.fsync = options.fsync_every == 0
                                               ? WalFsync::kNone
                                               : WalFsync::kEveryBatch;
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
               "%d shard(s); relearn every %d batch(es)\n"
               "commands: %s\n",
               num_sources, num_objects, num_values, service->num_shards(),
               options.relearn_every, ProtocolVerbList().c_str());
  if (options.shed_backlog > 0) {
    std::fprintf(stderr,
                 "admission control: shedding COMMITs at backlog %lld "
                 "(ERR BUSY + retry hint)\n",
                 static_cast<long long>(options.shed_backlog));
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
/// out-of-universe read, or a failed overhead gate.
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
  // The quick scenario is CI-sized: fewer chunks/readers and a smaller
  // latency sample, same gates.
  loadgen_options.num_chunks = options.quick ? 6 : options.chunks;
  loadgen_options.reader_threads = options.quick ? 2 : options.readers;
  loadgen_options.min_queries_per_reader = options.quick ? 500 : 5000;
  loadgen_options.relearn_every_batches = options.relearn_every;
  loadgen_options.seed = options.seed;
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
  std::printf("  offline cross-check: final sharded snapshots %s the "
              "offline single-session replay\n",
              report.verified ? "bit-identical to" : "DIFFER from");
  if (report.invalid_reads > 0) {
    std::fprintf(stderr, "loadgen: %lld out-of-universe reads\n",
                 static_cast<long long>(report.invalid_reads));
  }
  std::printf("  obs overhead: query p99 %.2fus metrics-off vs %.2fus "
              "metrics-on (gate: <5%% or 100ns — %s)\n",
              report.overhead_base_p99_seconds * 1e6,
              report.overhead_obs_p99_seconds * 1e6,
              report.overhead_gate_passed ? "passed" : "FAILED");
  if (!report.overhead_gate_passed) {
    std::fprintf(stderr,
                 "loadgen: observability overhead gate FAILED (p99 %.3fus "
                 "-> %.3fus, budget 5%% + 100ns floor)\n",
                 report.overhead_base_p99_seconds * 1e6,
                 report.overhead_obs_p99_seconds * 1e6);
  }
  const bool ok = report.verified && report.invalid_reads == 0 &&
                  report.overhead_gate_passed;
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
    // With a trace file, record stage spans for the whole run and dump
    // the chrome://tracing timeline on the way out (load it via
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

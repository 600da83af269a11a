// slimfast_cli — run data fusion on a dataset directory from the shell.
//
// Usage:
//   slimfast_cli <dataset_dir> [options]
//   slimfast_cli --demo <stocks|demos|crowd|genomics> [options]
//   slimfast_cli bench [--quick] [--threads N] [--seed N] [--out FILE]
//   slimfast_cli replay (<dataset_dir> | --demo NAME) [--chunks K] [options]
//   slimfast_cli serve (<dataset_dir> | --demo NAME | --dims S O V)
//                [--shards N] [--relearn-every K] [--preload]
//                [--wal-dir DIR] [--fsync-every N] [options]
//   slimfast_cli loadgen (<dataset_dir> | --demo NAME) [--quick]
//                [--shards N] [--chunks K] [--readers R] [--out FILE]
//   slimfast_cli storagebench [--quick] [--seed N] [--out FILE]
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
// The `bench` subcommand runs the Table-5-style runtime scenario (synthetic
// generation, compilation cold vs cached, ERM + EM learning, SIMD wide vs
// scalar learning, the per-core scaling curve, the eval grid, incremental
// delta-compilation vs full recompiles, and warm vs cold relearning) and
// writes per-phase seconds as BENCH_runtime.json
// (override with --out). --quick shrinks the scenario to CI size; the JSON
// schema is identical and checked by scripts/check_bench_schema.py.
//
// The `replay` subcommand feeds a dataset through a long-lived
// FusionSession in K chunks — delta-compile on ingest, warm-started
// relearn after every chunk — and reports the per-chunk latency and
// accuracy trajectory against (a) recompiling and relearning from scratch,
// (b) the one-shot batch run, and (c) the StreamingFusion baseline.
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
// cross-checks the final sharded snapshots against the offline replay
// (the sharded-replay determinism contract), and writes the serve_qps /
// query_latency phases as BENCH JSON (--out, default BENCH_serve.json,
// schema-checked by scripts/check_bench_schema.py).
//
// The `storagebench` subcommand measures the durability layer on a
// synthetic stream: WAL append throughput (wal_append), full-log replay
// into a store (wal_replay), and the snapshot bulk-load that replaces
// replay after a checkpoint (snapshot_load) — every path cross-checked
// against direct in-memory ingestion by store fingerprint. Writes
// BENCH_storage.json (--out), schema-checked like the other benches.

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "baselines/registry.h"
#include "bench_common.h"
#include "core/explain.h"
#include "core/fusion_session.h"
#include "core/slimfast.h"
#include "core/streaming.h"
#include "data/io.h"
#include "data/stats.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "exec/parallel.h"
#include "obs/event_log.h"
#include "obs/trace.h"
#include "serve/fusion_service.h"
#include "serve/line_protocol.h"
#include "serve/loadgen.h"
#include "simd/simd.h"
#include "storage/snapshot_io.h"
#include "storage/wal.h"
#include "synth/simulators.h"
#include "synth/synthetic.h"
#include "util/csv.h"
#include "util/random.h"

using namespace slimfast;

namespace {

struct CliOptions {
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
  /// `bench` subcommand: run the runtime scenario and write JSON.
  bool bench = false;
  /// Shrink the bench scenario to CI size (same phases, same schema).
  bool quick = false;
  /// `replay` subcommand: incremental ingest/relearn trajectory.
  bool replay = false;
  /// Number of replay ingest batches.
  int32_t chunks = 8;
  /// `serve` subcommand: line-protocol service over stdin/stdout.
  bool serve = false;
  /// `loadgen` subcommand: mixed ingest/query workload + latency report.
  bool loadgen = false;
  /// Shards of the FusionService (serve/loadgen).
  int32_t shards = 4;
  /// Query reader threads (loadgen).
  int32_t readers = 4;
  /// Relearn-every-K-batches policy (serve/loadgen).
  int32_t relearn_every = 2;
  /// Explicit universe dimensions for `serve` without a dataset.
  int32_t dim_sources = -1;
  int32_t dim_objects = -1;
  int32_t dim_values = -1;
  /// serve: submit the whole dataset as one batch before reading stdin.
  bool preload = false;
  /// loadgen: skip the offline-replay cross-check.
  bool no_verify = false;
  /// `storagebench` subcommand: WAL/snapshot durability micro-bench.
  bool storagebench = false;
  /// serve: durability directory ("" = in-memory only).
  std::string wal_dir;
  /// serve/storagebench WAL fsync cadence: 1 = every batch (default),
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
               "       slimfast_cli bench [--quick] [--threads N] [--seed N] "
               "[--out FILE]\n"
               "       slimfast_cli serve (<dataset_dir> | --demo NAME | "
               "--dims S O V)\n"
               "                    [--shards N] [--relearn-every K] "
               "[--preload]\n"
               "                    [--wal-dir DIR] [--fsync-every N]\n"
               "                    [--sched-warm-budget N] "
               "[--sched-cold-budget N]\n"
               "                    [--shed-queue-watermark F] "
               "[--shed-backlog N]\n"
               "                    [--event-log FILE] [--slo-query-p99 S] "
               "[--slo-staleness S]\n"
               "                    [--slo-stall S] [--slo-queue F]\n"
               "       slimfast_cli loadgen (<dataset_dir> | --demo NAME) "
               "[--quick]\n"
               "                    [--shards N] [--chunks K] [--readers R] "
               "[--out FILE]\n"
               "       slimfast_cli storagebench [--quick] [--seed N] "
               "[--out FILE]\n"
               "\n"
               "options:\n"
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
               "  --fsync-every N      serve/storagebench: fsync the WAL "
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
               "  bench                run the Table-5-style runtime "
               "scenario and write\n"
               "                       per-phase seconds to "
               "BENCH_runtime.json (see --out);\n"
               "                       --quick shrinks it to CI size, same "
               "schema\n"
               "  replay               feed the dataset through a "
               "FusionSession in K\n"
               "                       chunks (delta-compile + warm-start "
               "relearn) and\n"
               "                       report per-chunk latency and the "
               "accuracy\n"
               "                       trajectory vs the one-shot batch run "
               "and the\n"
               "                       streaming baseline\n"
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
               "                       verify the sharded-replay "
               "determinism contract,\n"
               "                       and write serve_qps/query_latency "
               "BENCH phases\n"
               "  storagebench         measure WAL append, WAL replay, and "
               "snapshot\n"
               "                       bulk-load on a synthetic stream "
               "(fingerprint\n"
               "                       cross-checked) and write "
               "wal_append/wal_replay/\n"
               "                       snapshot_load BENCH phases to "
               "BENCH_storage.json\n");
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Flag parse failures are one-line errors with an exit code of 2 —
    // never a silent fall-through to the default run or the help text.
    auto value_of = [&](const char** out) {
      *out = next();
      return *out != nullptr ||
             UsageError("option '" + arg + "' requires a value");
    };
    auto number_of = [&](auto* out) {
      const char* text = nullptr;
      return value_of(&text) && ParseNumber(arg, text, out);
    };
    const char* v = nullptr;
    if (arg == "--method") {
      if (!value_of(&v)) return false;
      options->method = v;
    } else if (arg == "--train-fraction") {
      if (!number_of(&options->train_fraction)) return false;
    } else if (arg == "--seed") {
      if (!number_of(&options->seed)) return false;
    } else if (arg == "--explain") {
      if (!number_of(&options->explain)) return false;
    } else if (arg == "--out") {
      if (!value_of(&v)) return false;
      options->out_file = v;
    } else if (arg == "--demo") {
      if (!value_of(&v)) return false;
      options->demo = v;
    } else if (arg == "--threads") {
      if (!number_of(&options->threads)) return false;
    } else if (arg == "--quick") {
      options->quick = true;
    } else if (arg == "--chunks") {
      if (!number_of(&options->chunks)) return false;
    } else if (arg == "--shards") {
      if (!number_of(&options->shards)) return false;
    } else if (arg == "--readers") {
      if (!number_of(&options->readers)) return false;
    } else if (arg == "--relearn-every") {
      if (!number_of(&options->relearn_every)) return false;
    } else if (arg == "--dims") {
      const char* s = next();
      const char* o = next();
      const char* d = next();
      if (s == nullptr || o == nullptr || d == nullptr) {
        return UsageError("option '--dims' requires three values: S O V");
      }
      if (!ParseNumber(arg, s, &options->dim_sources) ||
          !ParseNumber(arg, o, &options->dim_objects) ||
          !ParseNumber(arg, d, &options->dim_values)) {
        return false;
      }
    } else if (arg == "--preload") {
      options->preload = true;
    } else if (arg == "--wal-dir") {
      if (!value_of(&v)) return false;
      options->wal_dir = v;
    } else if (arg == "--fsync-every") {
      if (!number_of(&options->fsync_every)) return false;
    } else if (arg == "--trace-out") {
      if (!value_of(&v)) return false;
      options->trace_out = v;
    } else if (arg == "--sched-warm-budget") {
      if (!number_of(&options->sched_warm_budget.emplace())) return false;
    } else if (arg == "--sched-cold-budget") {
      if (!number_of(&options->sched_cold_budget.emplace())) return false;
    } else if (arg == "--sched-max-defer") {
      if (!number_of(&options->sched_max_defer.emplace())) return false;
    } else if (arg == "--shed-queue-watermark") {
      if (!number_of(&options->shed_queue_watermark)) return false;
    } else if (arg == "--shed-backlog") {
      if (!number_of(&options->shed_backlog)) return false;
    } else if (arg == "--event-log") {
      if (!value_of(&v)) return false;
      options->event_log = v;
    } else if (arg == "--slo-query-p99") {
      if (!number_of(&options->slo_query_p99)) return false;
    } else if (arg == "--slo-staleness") {
      if (!number_of(&options->slo_staleness)) return false;
    } else if (arg == "--slo-stall") {
      if (!number_of(&options->slo_stall)) return false;
    } else if (arg == "--slo-queue") {
      if (!number_of(&options->slo_queue)) return false;
    } else if (arg == "--no-verify") {
      options->no_verify = true;
    } else if (arg == "--stats") {
      options->stats_only = true;
    } else if (arg == "--help" || arg == "-h") {
      options->help = true;
      return true;
    } else if (arg.rfind("--", 0) == 0) {
      return UsageError("unknown option '" + arg + "'");
    } else if (arg == "bench" && i == 1) {
      // Subcommands are recognized in argv[1] only, so a dataset directory
      // that happens to be named "bench" still works as a later positional
      // (or as "./bench").
      options->bench = true;
    } else if (arg == "replay" && i == 1) {
      options->replay = true;
    } else if (arg == "serve" && i == 1) {
      options->serve = true;
    } else if (arg == "loadgen" && i == 1) {
      options->loadgen = true;
    } else if (arg == "storagebench" && i == 1) {
      options->storagebench = true;
    } else {
      options->dataset_dir = arg;
    }
  }
  // bench and storagebench generate their own data; serve can run on
  // bare --dims; replay, loadgen, and plain runs need a dataset.
  if (options->bench || options->storagebench ||
      !options->dataset_dir.empty() || !options->demo.empty() ||
      (options->serve && options->dim_sources >= 0)) {
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
/// delta-maintained instance. Shared by `replay` and `bench`, so the
/// delta-maintenance contract is re-checked at runtime by both.
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
    std::shared_ptr<const CompiledInstance> full;
    *seconds = bench::TimeSeconds(
        [&] { full = CompileInstance(grown, config_).ValueOrDie(); });
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
/// bitwise-equal — the delta-maintenance contract), the session relearns
/// (warm-started from the previous weights after the first chunk), and a
/// StreamingFusion baseline absorbs the same chunk. After the last chunk
/// the one-shot batch run provides the accuracy bar.
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
  StreamingFusion streaming;

  std::printf("slimfast replay: %s in %d chunks (%lld observations, "
              "train fraction %.3f, seed %llu)\n",
              dataset.name().empty() ? "dataset" : dataset.name().c_str(),
              num_chunks,
              static_cast<long long>(dataset.num_observations()),
              options.train_fraction,
              static_cast<unsigned long long>(options.seed));
  std::printf("  chunk  obs_total  ingest_delta  full_recompile  relearn   "
              "session_acc  streaming_acc\n");

  // Cumulative stream state for the full-recompile comparison and the
  // observed-so-far accuracy denominators.
  std::vector<uint8_t> observed(static_cast<size_t>(dataset.num_objects()),
                                0);
  FullRecompileOracle oracle(dataset, session_options.slimfast.model);

  auto observed_test_accuracy = [&](auto&& predict) {
    int64_t evaluated = 0;
    int64_t correct = 0;
    for (ObjectId o : split.test_objects) {
      if (!observed[static_cast<size_t>(o)]) continue;
      ++evaluated;
      if (predict(o) == dataset.Truth(o)) ++correct;
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
      SLIMFAST_CHECK_OK(
          streaming.Observe(obs.object, obs.source, obs.value));
      observed[static_cast<size_t>(obs.object)] = 1;
    }
    for (const TruthLabel& label : chunk.truths) {
      SLIMFAST_CHECK_OK(streaming.ProvideTruth(label.object, label.value));
    }

    double session_accuracy = observed_test_accuracy(
        [&](ObjectId o) { return session.Query(o); });
    double streaming_accuracy = observed_test_accuracy(
        [&](ObjectId o) { return streaming.CurrentEstimate(o); });
    std::printf("  %5d  %9lld  %10.4fs  %12.4fs  %6.3fs%s  %11.4f  "
                "%13.4f\n",
                c + 1,
                static_cast<long long>(session.num_observations()),
                ingest.ValueOrDie().seconds, full_seconds,
                relearn_stats.seconds,
                relearn_stats.warm_started ? " (warm)" : " (cold)",
                session_accuracy, streaming_accuracy);
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
  // never-observed objects counting against all three (kNoValue for the
  // session and streaming alike).
  double batch_accuracy =
      TestAccuracy(dataset, batch_output.ValueOrDie().predicted_values,
                   split)
          .ValueOrDie();
  double final_session_accuracy =
      TestAccuracy(dataset, session.predictions(), split).ValueOrDie();
  std::vector<ValueId> streaming_predictions(
      static_cast<size_t>(dataset.num_objects()), kNoValue);
  for (ObjectId o = 0; o < dataset.num_objects(); ++o) {
    streaming_predictions[static_cast<size_t>(o)] =
        streaming.CurrentEstimate(o);
  }
  double final_streaming_accuracy =
      TestAccuracy(dataset, streaming_predictions, split).ValueOrDie();

  std::printf("\nFinal held-out accuracy: session %.4f, one-shot batch "
              "%.4f, streaming %.4f\n",
              final_session_accuracy, batch_accuracy,
              final_streaming_accuracy);
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

/// The Table-5-style runtime scenario behind `slimfast_cli bench`.
///
/// Phases (each timed and recorded in the shared BenchReporter schema):
///   generate_replicas  parallel synthetic dataset generation (src/synth)
///   compile            cold compilation into a CompiledInstance (flat
///                      sparse structure + columnar ObservationStore)
///   compile_cached     the same lookup served by CompiledInstanceCache —
///                      the cost every re-fit pays after the first
///   learn_erm_sparse   batch ERM over the CompiledInstance CSR ranges
///   learn_em_sparse    EM over the CompiledInstance CSR ranges
///   learn_em_simd      soft EM over the flat ranges with the wide SIMD
///                      kernel table, vs the same fit forced scalar —
///                      outputs bit-identical (the lane-stable contract)
///   learn_erm_simd     batch accuracy-log-loss ERM, wide vs scalar,
///                      same bitwise cross-check
///   eval_grid          parallel method×fraction sweep (src/eval)
///   ingest_delta       incremental ingest in 4 chunks: store splice +
///                      DeltaCompile of the touched rows, vs recompiling
///                      the data-so-far from scratch after every chunk
///   relearn_warm       warm-started refinement from the previous weight
///                      vector, vs the cold-start learning schedule
///
/// Serial-vs-parallel, SIMD-vs-scalar, and delta-vs-full runs are
/// cross-checked for bit-identical output (the exec determinism,
/// lane-stable SIMD, and delta-maintenance contracts); the bench fails on
/// any mismatch. The
/// JSON additionally records a per-core scaling curve — the learn_em_simd
/// fit re-timed at every thread count 1..HardwareCores() — under the
/// top-level "scaling" key.
int RunBench(const CliOptions& options) {
  ExecOptions exec_options;
  exec_options.threads = options.threads;
  Executor parallel(exec_options);
  const int32_t threads = parallel.threads();
  const bool quick = options.quick;

  bench::BenchReporter reporter("runtime");
  reporter.set_threads(threads);
  std::printf("slimfast bench: runtime scenario%s (threads=%d, seed=%llu)\n",
              quick ? " [quick]" : "", threads,
              static_cast<unsigned long long>(options.seed));

  // --- Phase 1: parallel synthetic generation. ---
  SyntheticConfig config;
  config.name = "bench-runtime";
  config.num_sources = quick ? 40 : 150;
  config.num_objects = quick ? 1200 : 5000;
  config.density = quick ? 0.08 : 0.05;
  config.num_feature_groups = 4;
  config.values_per_group = 8;
  config.feature_effect = 0.1;
  const int32_t num_replicas = quick ? 2 : 8;
  std::vector<SyntheticDataset> replicas;
  double generate_seconds = bench::TimeSeconds([&] {
    replicas = GenerateSyntheticReplicas(config, options.seed, num_replicas,
                                         &parallel)
                   .ValueOrDie();
  });
  reporter.AddPhase("generate_replicas", generate_seconds, threads);
  std::printf("  generate_replicas  %7.3fs (%d replicas, %d threads)\n",
              generate_seconds, num_replicas, threads);

  const Dataset& dataset = replicas[0].dataset;
  Rng split_rng(options.seed);
  TrainTestSplit split =
      MakeSplit(dataset, 0.1, &split_rng).ValueOrDie();

  // --- Phase 2: compilation, cold vs cached. ---
  // Cold = fingerprint + full Compile + flatten (a cache miss); cached =
  // fingerprint + lookup (what every ERM epoch loop, EM re-fit, or grid
  // cell pays after the first run on a dataset).
  CompiledInstanceCache& cache = CompiledInstanceCache::Global();
  cache.Clear();
  ModelConfig model_config;  // the SLiMFast preset's model structure
  std::shared_ptr<const CompiledInstance> instance;
  double compile_seconds = bench::TimeSeconds([&] {
    instance = cache.GetOrCompile(dataset, model_config).ValueOrDie();
  });
  std::shared_ptr<const CompiledInstance> cached_instance;
  double compile_cached_seconds = bench::TimeSeconds([&] {
    cached_instance = cache.GetOrCompile(dataset, model_config).ValueOrDie();
  });
  if (cached_instance.get() != instance.get()) {
    std::fprintf(stderr,
                 "bench: compilation cache failed to return the shared "
                 "instance\n");
    return 1;
  }
  double compile_speedup = compile_cached_seconds > 0.0
                               ? compile_seconds / compile_cached_seconds
                               : 0.0;
  reporter.AddPhase("compile", compile_seconds, 1);
  reporter.AddPhase("compile_cached", compile_cached_seconds, 1);
  reporter.AddSpeedup("compile_cached_vs_cold", 1, 1, compile_speedup);
  std::printf("  compile            %7.3fs cold, %.6fs cached (%.0fx)\n",
              compile_seconds, compile_cached_seconds, compile_speedup);

  // --- Phases 3+4: ERM and EM learn time. ---
  // The recorded seconds are the *learning* stage only
  // (FusionOutput::learn_seconds); compilation is measured by the compile
  // phases above, and the runs bypass the cache so every rep compiles its
  // own structure.
  auto learn_phase = [&](const char* name, bool batch_erm,
                         auto&& make_method) {
    SlimFastOptions learn_options;
    learn_options.exec.threads = threads;
    learn_options.use_compilation_cache = false;
    learn_options.erm.batch = batch_erm;
    if (batch_erm) {
      // Pin the epoch count so the phase measures steady per-epoch cost
      // instead of when early convergence happens to trigger.
      learn_options.erm.tolerance = 0.0;
      learn_options.erm.epochs = quick ? 30 : 60;
    }
    auto method = make_method(learn_options);
    // Sub-10ms phases (batch ERM) drown in scheduler noise on one
    // measurement; min-of-reps is the standard low-noise estimator.
    const int reps = batch_erm ? 5 : 1;
    double seconds = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      const double learn_seconds =
          method->Run(dataset, split, options.seed).ValueOrDie().learn_seconds;
      if (rep == 0 || learn_seconds < seconds) seconds = learn_seconds;
    }
    reporter.AddPhase(name, seconds, threads);
    std::printf("  %-18s %7.3fs (learn-only)\n", name, seconds);
  };
  learn_phase("learn_erm_sparse", /*batch_erm=*/true,
              [](SlimFastOptions o) { return MakeSlimFastErm(o); });
  learn_phase("learn_em_sparse", /*batch_erm=*/false,
              [](SlimFastOptions o) { return MakeSlimFastEm(o); });

  // --- Phase 4b: SIMD wide vs scalar on the vectorized learners. ---
  // Same sparse representation, same seed; the only variable is the
  // kernel table the simd layer dispatches to. The wide and scalar
  // tables are width-8 and width-1 instantiations of one template with a
  // lane-stable reduction, so the outputs must be bit-identical — the
  // bench fails (non-zero exit) on any divergence, making the SIMD
  // determinism contract a per-commit gate, not a tolerance. The two
  // configs are the learners whose hot loops stream the kernels:
  //   learn_em_simd    soft EM (batched E-step posterior + entropy
  //                    pipeline, batch M-step)
  //   learn_erm_simd   full-batch accuracy-log-loss ERM (batched
  //                    sigmoid/softplus epochs, fused AdaGrad update)
  // Process-default dispatch: wide only when compiled in, permitted by
  // the SLIMFAST_SIMD environment switch, and supported by this CPU. A
  // kill-switched run compares scalar vs scalar (the honest ~1.0x)
  // rather than forcing the table the user disabled.
  const bool simd_wide_available = simd::WideEnabled();
  if (!simd_wide_available) {
    std::printf("  note: wide SIMD table unavailable (compiled out, "
                "SLIMFAST_SIMD=0, or unsupported CPU); simd phases "
                "compare scalar vs scalar\n");
  }
  auto make_em_simd_options = [&](int32_t phase_threads) {
    SlimFastOptions o;
    o.exec.threads = phase_threads;
    o.use_compilation_cache = false;
    o.em.soft = true;
    o.em.m_step.batch = true;
    // Pin the iteration budget so the phase measures steady per-sweep
    // cost, not when convergence happens to trigger.
    o.em.tolerance = 0.0;
    o.em.max_iterations = quick ? 10 : 20;
    return o;
  };
  auto simd_phase = [&](const char* name,
                        auto&& make_method) -> int {
    auto method = make_method();
    FusionOutput wide_output;
    FusionOutput scalar_output;
    double wide_seconds = 0.0;
    double scalar_seconds = 0.0;
    const int reps = 3;  // min-of-reps, as in the learn phases
    for (int rep = 0; rep < reps; ++rep) {
      simd::SetWideEnabledForTest(simd_wide_available);
      wide_output = method->Run(dataset, split, options.seed).ValueOrDie();
      simd::SetWideEnabledForTest(false);
      scalar_output = method->Run(dataset, split, options.seed).ValueOrDie();
      if (rep == 0 || wide_output.learn_seconds < wide_seconds) {
        wide_seconds = wide_output.learn_seconds;
      }
      if (rep == 0 || scalar_output.learn_seconds < scalar_seconds) {
        scalar_seconds = scalar_output.learn_seconds;
      }
    }
    simd::SetWideEnabledForTest(simd_wide_available);  // process default
    if (wide_output.predicted_values != scalar_output.predicted_values ||
        wide_output.source_accuracies != scalar_output.source_accuracies) {
      std::fprintf(stderr,
                   "bench: %s wide and scalar outputs differ (lane-stable "
                   "SIMD contract violated)\n",
                   name);
      return 1;
    }
    double speedup = wide_seconds > 0.0 ? scalar_seconds / wide_seconds : 0.0;
    reporter.AddPhase(name, wide_seconds, threads);
    reporter.AddSpeedup(std::string(name) + "_vs_scalar", threads, threads,
                        speedup);
    std::printf("  %-18s %7.3fs wide, %7.3fs scalar (%.2fx learn-only, "
                "bit-identical, width=%d)\n",
                name, wide_seconds, scalar_seconds, speedup,
                simd_wide_available ? simd::kWideWidth : 1);
    return 0;
  };
  if (simd_phase("learn_em_simd", [&] {
        return MakeSlimFastEm(make_em_simd_options(threads));
      }) != 0) {
    return 1;
  }
  if (simd_phase("learn_erm_simd", [&] {
        SlimFastOptions o;
        o.exec.threads = threads;
        o.use_compilation_cache = false;
        o.erm.loss = ErmLoss::kAccuracyLogLoss;
        o.erm.batch = true;
        o.erm.tolerance = 0.0;
        o.erm.epochs = quick ? 30 : 60;
        // Accuracy-loss fits report calibrated accuracies already; the
        // extra calibration pass would re-run the same fit.
        o.calibrate_accuracies = false;
        return MakeSlimFastErm(o);
      }) != 0) {
    return 1;
  }

  // --- Per-core scaling curve: the learn_em_simd fit re-timed at every
  // thread count 1..HardwareCores(). Thread count never changes the
  // result (the exec determinism contract), only the wall clock; the
  // curve records how far the shard structure actually scales on this
  // box. Emitted under the top-level "scaling" key and required by
  // scripts/check_bench_schema.py for the runtime scenario. ---
  {
    const int32_t cores = bench::BenchReporter::HardwareCores();
    std::vector<ValueId> scaling_reference;
    for (int32_t t = 1; t <= cores; ++t) {
      auto method = MakeSlimFastEm(make_em_simd_options(t));
      FusionOutput out =
          method->Run(dataset, split, options.seed).ValueOrDie();
      if (t == 1) {
        scaling_reference = out.predicted_values;
      } else if (out.predicted_values != scaling_reference) {
        std::fprintf(stderr,
                     "bench: scaling run at %d threads diverged from the "
                     "1-thread result (exec determinism contract "
                     "violated)\n",
                     t);
        return 1;
      }
      reporter.AddScalingPoint("learn_em_simd", t, out.learn_seconds);
      std::printf("  scaling            %7.3fs learn @%d thread(s)\n",
                  out.learn_seconds, t);
    }
  }

  if (threads > bench::BenchReporter::HardwareCores()) {
    std::printf("  note: %d threads on %d hardware core(s); wall-clock "
                "speedup is capped by the hardware\n",
                threads, bench::BenchReporter::HardwareCores());
  }

  // --- Phase 5: parallel eval grid. ---
  // Every SLiMFast cell shares the dataset, so the grid hits the
  // compilation cache after the first cell.
  std::vector<std::unique_ptr<FusionMethod>> methods_owned;
  SlimFastOptions grid_options;
  grid_options.exec.threads = 1;  // grid parallelism lives in the harness
  for (const char* name : {"SLiMFast", "MajorityVote", "ACCU"}) {
    methods_owned.push_back(
        MakeMethodByName(name, grid_options).ValueOrDie());
  }
  std::vector<FusionMethod*> methods;
  for (auto& m : methods_owned) methods.push_back(m.get());
  SweepSpec spec;
  spec.train_fractions = quick ? std::vector<double>{0.20}
                               : std::vector<double>{0.05, 0.20};
  spec.num_seeds = quick ? 1 : 2;
  spec.base_seed = options.seed;
  double grid_seconds = bench::TimeSeconds([&] {
    SweepMethods(dataset, methods, spec, &parallel).ValueOrDie();
  });
  reporter.AddPhase("eval_grid", grid_seconds, threads);
  std::printf("  eval_grid          %7.3fs (3 methods x %zu fractions x %d "
              "seeds)\n",
              grid_seconds, spec.train_fractions.size(), spec.num_seeds);

  // --- Phase 6: incremental ingest — delta-compilation vs recompiling
  // the data-so-far from scratch after every chunk. Every chunk's delta
  // result is cross-checked bitwise-equal to the full recompilation (the
  // delta-maintenance contract); the bench fails on mismatch. ---
  const int32_t ingest_chunks = 4;
  std::vector<ObservationBatch> chunks =
      ChunkDatasetForReplay(dataset, ingest_chunks);
  DatasetBuilder empty_builder("bench-ingest", dataset.num_sources(),
                               dataset.num_objects(), dataset.num_values());
  *empty_builder.mutable_features() = dataset.features();
  Dataset empty_twin = std::move(empty_builder).Build().ValueOrDie();
  std::shared_ptr<const CompiledInstance> delta_instance =
      CompileInstance(empty_twin, model_config).ValueOrDie();

  FullRecompileOracle oracle(dataset, model_config);
  double ingest_delta_seconds = 0.0;
  double ingest_full_seconds = 0.0;
  for (int32_t c = 0; c < ingest_chunks; ++c) {
    const ObservationBatch& chunk = chunks[static_cast<size_t>(c)];
    ingest_delta_seconds += bench::TimeSeconds([&] {
      delta_instance =
          DeltaCompile(*delta_instance, chunk, &parallel).ValueOrDie();
    });
    double full_seconds = 0.0;
    if (!oracle.AbsorbAndCheck(chunk, *delta_instance, c, "bench",
                               &full_seconds)) {
      return 1;
    }
    ingest_full_seconds += full_seconds;
  }
  double ingest_speedup = ingest_delta_seconds > 0.0
                              ? ingest_full_seconds / ingest_delta_seconds
                              : 0.0;
  reporter.AddPhase("ingest_delta", ingest_delta_seconds, threads);
  reporter.AddSpeedup("ingest_delta_vs_recompile", threads, threads,
                      ingest_speedup);
  std::printf("  ingest_delta       %7.3fs delta vs %7.3fs full recompile "
              "over %d chunks (%.2fx, bit-identical)\n",
              ingest_delta_seconds, ingest_full_seconds, ingest_chunks,
              ingest_speedup);

  // --- Phase 7: warm-started relearning vs the cold schedule. The warm
  // fit seeds from the cold fit's weights and runs the refinement budget
  // (WarmStartOptions::budget_scale of the cold epochs). ---
  SlimFastOptions relearn_options;
  relearn_options.exec.threads = threads;
  relearn_options.algorithm = Algorithm::kErm;
  SlimFast relearner(relearn_options, "bench-relearner");
  SlimFastFit cold_fit =
      relearner
          .FitCompiled(dataset, split, options.seed, instance, nullptr,
                       &parallel)
          .ValueOrDie();
  std::vector<double> warm_weights = cold_fit.model.weights();
  SlimFastFit warm_fit =
      relearner
          .FitCompiled(dataset, split, options.seed, instance,
                       &warm_weights, &parallel)
          .ValueOrDie();
  if (!warm_fit.warm_started) {
    std::fprintf(stderr, "bench: warm fit did not warm-start\n");
    return 1;
  }
  double relearn_cold_seconds = cold_fit.learn_seconds;
  double relearn_warm_seconds = warm_fit.learn_seconds;
  double relearn_speedup = relearn_warm_seconds > 0.0
                               ? relearn_cold_seconds / relearn_warm_seconds
                               : 0.0;
  auto heldout_accuracy = [&](const SlimFastModel& model) {
    return TestAccuracy(dataset, model.PredictAll(), split).ValueOrDie();
  };
  double cold_accuracy = heldout_accuracy(cold_fit.model);
  double warm_accuracy = heldout_accuracy(warm_fit.model);
  reporter.AddPhase("relearn_warm", relearn_warm_seconds, threads);
  reporter.AddSpeedup("relearn_warm_vs_cold", threads, threads,
                      relearn_speedup);
  std::printf("  relearn_warm       %7.3fs warm vs %7.3fs cold (%.2fx; "
              "held-out accuracy %.4f warm / %.4f cold)\n",
              relearn_warm_seconds, relearn_cold_seconds, relearn_speedup,
              warm_accuracy, cold_accuracy);

  std::string out_path =
      options.out_file.empty() ? "BENCH_runtime.json" : options.out_file;
  if (!reporter.WriteJson(out_path)) return 1;
  std::printf("Per-phase JSON written to %s (git %s)\n", out_path.c_str(),
              bench::BenchReporter::GitDescribe().c_str());
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
  int32_t num_sources = options.dim_sources;
  int32_t num_objects = options.dim_objects;
  int32_t num_values = options.dim_values;
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

/// The `storagebench` subcommand: the durability layer's three costs on
/// one synthetic stream. wal_append is the logging overhead every
/// durable ingest pays; wal_replay is recovery from a bare log (decode +
/// re-ingest every batch); snapshot_load is recovery from a checkpoint
/// (one bulk column load) — the speedup between the last two is exactly
/// what Checkpoint() buys. Every path is cross-checked against direct
/// in-memory ingestion: the bench fails unless the replayed and loaded
/// stores are bitwise equal to the reference (fingerprint included).
int RunStorageBench(const CliOptions& options) {
  const bool quick = options.quick;
  SyntheticConfig config;
  config.name = "bench-storage";
  config.num_sources = quick ? 40 : 120;
  config.num_objects = quick ? 1500 : 8000;
  config.density = quick ? 0.08 : 0.05;
  auto synth = GenerateSynthetic(config, options.seed);
  if (!synth.ok()) {
    std::fprintf(stderr, "cannot generate dataset: %s\n",
                 synth.status().ToString().c_str());
    return 1;
  }
  Dataset dataset = std::move(synth).ValueOrDie().dataset;
  const int32_t num_batches = quick ? 32 : 128;
  std::vector<ObservationBatch> batches =
      ChunkDatasetForReplay(dataset, num_batches);

  std::printf("slimfast storagebench%s: %lld observations in %d batches "
              "(seed %llu, fsync every %d)\n",
              quick ? " [quick]" : "",
              static_cast<long long>(dataset.num_observations()),
              num_batches,
              static_cast<unsigned long long>(options.seed),
              options.fsync_every);

  // Scratch directory; removed on every exit path below.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("slimfast-storagebench-" + std::to_string(::getpid())))
          .string();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  auto cleanup = [&] { std::filesystem::remove_all(dir, ec); };
  auto fail = [&](const std::string& what, const Status& status) {
    std::fprintf(stderr, "storagebench: %s: %s\n", what.c_str(),
                 status.ToString().c_str());
    cleanup();
    return 1;
  };

  // --- Phase 1: WAL append (the per-batch durable-ingest overhead). ---
  const WalOptions wal_options = WalOptionsFor(options.fsync_every);
  double wal_append_seconds = 0.0;
  {
    auto opened = WalWriter::Open(dir, wal_options);
    if (!opened.ok()) return fail("cannot open WAL", opened.status());
    std::unique_ptr<WalWriter> writer = std::move(opened).ValueOrDie();
    Status append_status;
    wal_append_seconds = bench::TimeSeconds([&] {
      for (const ObservationBatch& batch : batches) {
        auto logged = writer->Append(batch);
        if (!logged.ok()) {
          append_status = logged.status();
          return;
        }
      }
      append_status = writer->Sync();
    });
    if (!append_status.ok()) return fail("WAL append", append_status);
  }
  std::printf("  wal_append         %7.3fs (%d batches -> %s)\n",
              wal_append_seconds, num_batches, dir.c_str());

  // The reference the durable paths must reproduce: the same batches
  // ingested directly in memory (untimed).
  DatasetBuilder empty_builder("bench-storage-empty", dataset.num_sources(),
                               dataset.num_objects(), dataset.num_values());
  Dataset empty_twin = std::move(empty_builder).Build().ValueOrDie();
  ObservationStore reference = ObservationStore::FromDataset(empty_twin);
  for (const ObservationBatch& batch : batches) {
    auto appended = reference.AppendBatch(batch);
    if (!appended.ok()) return fail("reference ingest", appended.status());
    reference = std::move(appended).ValueOrDie();
  }

  // --- Phase 2: recovery from a bare log — decode + re-ingest all. ---
  ObservationStore replayed = ObservationStore::FromDataset(empty_twin);
  Status replay_status;
  double wal_replay_seconds = bench::TimeSeconds([&] {
    replay_status = ReplayWal(dir, 0, [&](const WalRecord& record) {
      SLIMFAST_ASSIGN_OR_RETURN(replayed,
                                replayed.AppendBatch(record.batch));
      return Status::OK();
    });
  });
  if (!replay_status.ok()) return fail("WAL replay", replay_status);
  if (!(replayed == reference)) {
    std::fprintf(stderr,
                 "storagebench: replayed store differs from direct "
                 "ingestion (fingerprint %016llx vs %016llx)\n",
                 static_cast<unsigned long long>(
                     replayed.content_fingerprint()),
                 static_cast<unsigned long long>(
                     reference.content_fingerprint()));
    cleanup();
    return 1;
  }
  std::printf("  wal_replay         %7.3fs (store fingerprint %016llx, "
              "bit-identical)\n",
              wal_replay_seconds,
              static_cast<unsigned long long>(
                  replayed.content_fingerprint()));

  // --- Phase 3: recovery from a checkpoint — one bulk column load. ---
  const std::string snap_path = dir + "/store.snap";
  std::string payload;
  AppendStoreColumns(reference, &payload);
  Status written = WriteSnapshotFile(snap_path, payload);
  if (!written.ok()) return fail("snapshot write", written);
  ObservationStore loaded;
  Status load_status;
  double snapshot_load_seconds = bench::TimeSeconds([&] {
    load_status = [&]() -> Status {
      SLIMFAST_ASSIGN_OR_RETURN(std::string bytes,
                                ReadSnapshotFile(snap_path));
      ByteReader in(bytes);
      SLIMFAST_ASSIGN_OR_RETURN(loaded, ReadStoreColumns(&in));
      if (in.remaining() != 0) {
        return Status::IOError("trailing bytes after store columns");
      }
      return Status::OK();
    }();
  });
  if (!load_status.ok()) return fail("snapshot load", load_status);
  if (!(loaded == reference)) {
    std::fprintf(stderr,
                 "storagebench: snapshot-loaded store differs from direct "
                 "ingestion\n");
    cleanup();
    return 1;
  }
  double load_speedup = snapshot_load_seconds > 0.0
                            ? wal_replay_seconds / snapshot_load_seconds
                            : 0.0;
  std::printf("  snapshot_load      %7.3fs (%.2fx faster than replaying "
              "the log, bit-identical)\n",
              snapshot_load_seconds, load_speedup);
  cleanup();

  // Sub-resolution phases record the 1ns floor, not a dead-timer 0 (the
  // schema checker rejects non-positive seconds for required phases).
  auto floored = [](double seconds) {
    return seconds > 0.0 ? seconds : 1e-9;
  };
  bench::BenchReporter reporter("storage");
  reporter.set_threads(1);
  reporter.AddPhase("wal_append", floored(wal_append_seconds), 1);
  reporter.AddPhase("wal_replay", floored(wal_replay_seconds), 1);
  reporter.AddPhase("snapshot_load", floored(snapshot_load_seconds), 1);
  reporter.AddSpeedup("snapshot_load_vs_wal_replay", 1, 1, load_speedup);
  std::string out_path =
      options.out_file.empty() ? "BENCH_storage.json" : options.out_file;
  if (!reporter.WriteJson(out_path)) return 1;
  std::printf("Storage bench JSON written to %s (git %s)\n",
              out_path.c_str(),
              bench::BenchReporter::GitDescribe().c_str());
  return 0;
}

/// The `loadgen` subcommand: mixed ingest/query workload against a
/// FusionService, QPS + latency percentiles as serve BENCH phases, and
/// the offline-replay cross-check. Non-zero exit on a failed cross-check
/// or any out-of-universe read.
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
  // latency sample, same phases, same schema.
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

  // Percentiles below the clock's resolution record the 1ns floor rather
  // than a dead-timer 0 (the schema checker rejects non-positive values
  // for required phases).
  auto floored = [](double seconds) {
    return seconds > 0.0 ? seconds : 1e-9;
  };
  bench::BenchReporter reporter("serve");
  reporter.set_threads(ResolveThreads(loadgen_options.exec));
  reporter.AddQpsPhase("serve_qps", floored(report.run_wall_seconds),
                       report.reader_threads, report.qps);
  reporter.AddLatencyPhase(
      "query_latency", floored(report.query_latency.p50),
      report.reader_threads, floored(report.query_latency.p50),
      floored(report.query_latency.p95), floored(report.query_latency.p99));
  // Observability fields: lifetime counters plus the overhead-gate
  // gauges, carried in the optional "metrics" object the schema checker
  // validates for serve benches.
  reporter.AddLatencyPhase(
      "flat_hot_staleness_p99", floored(skew.flat.wall_seconds),
      skew_options.reader_threads, floored(skew.flat.hot_staleness.p50),
      floored(skew.flat.hot_staleness.p95),
      floored(skew.flat.hot_staleness.p99));
  reporter.AddLatencyPhase(
      "sched_hot_staleness_p99", floored(skew.sched.wall_seconds),
      skew_options.reader_threads, floored(skew.sched.hot_staleness.p50),
      floored(skew.sched.hot_staleness.p95),
      floored(skew.sched.hot_staleness.p99));
  reporter.AddCounter("queries_total", report.total_queries);
  reporter.AddCounter("relearns_total", report.relearns);
  reporter.AddCounter("publishes_total", report.publishes);
  reporter.AddCounter("sheds_total", skew.admission_sheds);
  // Flight-recorder health fields: the event ring must not be dropping
  // (a nonzero value means the EVENTS ring overflowed faster than it
  // was drained) and no SLO rule may be latched at the end of the run
  // (loadgen configures no watchdog, so this is 0 unless a future
  // change wires one up — the schema checker requires both fields).
  reporter.AddCounter("events_dropped_total",
                      obs::EventLog::Global().dropped());
  reporter.AddGauge("slo_breached_rules", 0.0);
  reporter.AddGauge("sched_gate_passed", skew.gate_passed ? 1.0 : 0.0);
  if (report.overhead_ran) {
    reporter.AddGauge("obs_overhead_base_p99_seconds",
                      floored(report.overhead_base_p99_seconds));
    reporter.AddGauge("obs_overhead_obs_p99_seconds",
                      floored(report.overhead_obs_p99_seconds));
    reporter.AddGauge("obs_overhead_gate_passed",
                      report.overhead_gate_passed ? 1.0 : 0.0);
  }
  // Default to a serve-specific file: the committed BENCH_runtime.json
  // baseline is the *runtime* scenario, and a serve-schema document
  // would still pass the schema checker (required phases key off the
  // embedded bench name) — an easy file to clobber silently.
  std::string out_path =
      options.out_file.empty() ? "BENCH_serve.json" : options.out_file;
  if (!reporter.WriteJson(out_path)) return 1;
  std::printf("Serve bench JSON written to %s (git %s)\n", out_path.c_str(),
              bench::BenchReporter::GitDescribe().c_str());

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
  if (options.bench) return RunBench(options);
  if (options.storagebench) return RunStorageBench(options);
  // A first positional that names no existing path is a typoed
  // subcommand (or a missing dataset directory) — fail fast with a hint
  // instead of falling through to "cannot load dataset".
  if (!options.dataset_dir.empty() && options.demo.empty() &&
      !std::filesystem::exists(options.dataset_dir)) {
    std::fprintf(stderr,
                 "slimfast_cli: unknown subcommand or dataset directory "
                 "'%s' (run 'slimfast_cli --help' for usage)\n",
                 options.dataset_dir.c_str());
    return 2;
  }
  if (options.serve || options.loadgen || options.replay) {
    // --trace-out: record stage spans for the whole run and dump the
    // chrome://tracing timeline on the way out (load it via
    // chrome://tracing or https://ui.perfetto.dev).
    const bool tracing = !options.trace_out.empty();
    if (tracing) obs::TraceRecorder::Global().Enable();
    int rc = options.serve      ? RunServe(options)
             : options.loadgen  ? RunLoadgenCli(options)
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

// slimbench: the repository benchmark. Usually started through run.py,
// which builds this binary first:
//
//   python3 slimbench/run.py --workload batch_fit --seed 1 --seconds 40 --trace 0
//
// Prints a machine probe line, one `metric <name> <value> <unit>` line per
// metric, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from the traced pass. Exits non-zero when any output
// check failed.

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

using slimbench::JsonNumber;
using slimbench::JsonString;
using slimbench::NowNs;

/// The ambient knobs the library reads from the environment, pinned so the
/// caller's environment cannot change a number.
const std::vector<std::pair<const char*, const char*>> kPinnedEnv = {
    {"SLIMFAST_THREADS", "1"},
    {"SLIMFAST_OBS", "1"},
    {"SLIMFAST_SIMD", "1"},
    {"SLIMFAST_EVENT_LOG", ""},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_describe = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else if (key == "--git-describe") {
      args->git_describe = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

/// Fixed integer kernel: `iters` rounds of xorshift per thread.
double KernelSeconds(int threads, int64_t iters) {
  std::vector<std::thread> pool;
  std::vector<uint64_t> sink(static_cast<size_t>(threads));
  const int64_t t0 = NowNs();
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(t);
      for (int64_t i = 0; i < iters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      sink[static_cast<size_t>(t)] = x;
    });
  }
  for (std::thread& th : pool) th.join();
  const double s = static_cast<double>(NowNs() - t0) * 1e-9;
  return sink[0] == 0 ? s + 1e-12 : s;  // keeps the loop observable
}

/// Machine probe: the kernel's single-thread time and its effective
/// parallelism at nproc threads vs one (medians, and the max-min spread of
/// three trials), and the median latency of a 4 KiB write + fsync in
/// `dir`. The single-thread time tracks how fast the machine is during
/// the run; on a shared VM it drifts by tens of percent within an hour.
std::string ProbeMachine(const std::string& dir, const Args& args) {
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  constexpr int64_t kIters = 20'000'000;
  std::vector<double> eff;
  std::vector<double> one_thread_s;
  for (int trial = 0; trial < 3; ++trial) {
    const double one = KernelSeconds(1, kIters);
    const double all = KernelSeconds(nproc, kIters);
    eff.push_back(nproc * one / all);
    one_thread_s.push_back(one);
  }
  const double spread = *std::max_element(eff.begin(), eff.end()) -
                        *std::min_element(eff.begin(), eff.end());
  std::vector<double> fsync_us;
  const std::string path = dir + "/fsync-probe";
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd >= 0) {
    char block[4096];
    std::memset(block, 'x', sizeof(block));
    for (int i = 0; i < 20; ++i) {
      const int64_t t0 = NowNs();
      if (::write(fd, block, sizeof(block)) != sizeof(block)) break;
      ::fsync(fd);
      fsync_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    }
    ::close(fd);
    std::filesystem::remove(path);
  }
  std::string env = "{";
  for (size_t i = 0; i < kPinnedEnv.size(); ++i) {
    if (i > 0) env += ",";
    env += JsonString(kPinnedEnv[i].first) + ":" +
           JsonString(kPinnedEnv[i].second);
  }
  env += "}";
  return std::string("{\"nproc\":") + std::to_string(nproc) +
         ",\"kernel_1thread_s\":" +
         JsonNumber(slimbench::Median(one_thread_s)) +
         ",\"effective_parallelism\":" + JsonNumber(slimbench::Median(eff)) +
         ",\"effective_parallelism_spread\":" + JsonNumber(spread) +
         ",\"fsync_us_p50\":" + JsonNumber(slimbench::Median(fsync_us)) +
         ",\"git_describe\":" + JsonString(args.git_describe) +
         ",\"build_type\":" + JsonString(SLIMBENCH_BUILD_TYPE) +
         ",\"SLIMFAST_OBS_build\":" + JsonString(SLIMBENCH_OBS_FLAG) +
         ",\"SLIMFAST_SIMD_build\":" + JsonString(SLIMBENCH_SIMD_FLAG) +
         ",\"env\":" + env + "}";
}

}  // namespace

int main(int argc, char** argv) {
  for (const auto& [name, value] : kPinnedEnv) ::setenv(name, value, 1);

  Args args;
  slimbench::WorkloadShape shape;
  if (!ParseArgs(argc, argv, &args) ||
      !slimbench::ShapeFor(args.workload, &shape)) {
    std::fprintf(stderr,
                 "usage: slimbench --workload batch_fit|stream_commit|"
                 "query_mix --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR] [--git-describe TEXT]\n");
    return 2;
  }

  namespace fs = std::filesystem;
  const std::string work_dir = args.out_dir + "/run-" +
                               std::to_string(::getpid());
  fs::remove_all(work_dir);
  fs::create_directories(work_dir);

  std::printf("slimbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("probe %s\n", ProbeMachine(work_dir, args).c_str());
  std::fflush(stdout);

  auto inputs = slimbench::GenerateInputs(shape, args.seed);
  if (!inputs.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 inputs.status().ToString().c_str());
    fs::remove_all(work_dir);
    return 1;
  }

  slimbench::RunConfig config;
  config.seed = args.seed;
  config.seconds = args.seconds;
  config.trace = args.trace;
  config.work_dir = work_dir;
  const slimbench::RunReport report =
      slimbench::RunWorkload(shape, inputs.ValueOrDie(), config);
  fs::remove_all(work_dir);

  if (args.trace) {
    const std::string trace_path = args.out_dir + "/trace-" + args.workload +
                                   "-seed" + std::to_string(args.seed) +
                                   ".json";
    std::ofstream(trace_path) << slimbench::SpansToJson(report.spans);
    std::printf("trace %s (%zu spans)\n", trace_path.c_str(),
                report.spans.size());
  }

  const slimbench::MetricSet& shown =
      args.trace ? report.per_layer : report.end_to_end;
  for (const slimbench::Metric& m : report.end_to_end.all()) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (args.trace) {
    for (const slimbench::Metric& m : report.per_layer.all()) {
      std::printf("layer %s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const auto& [phase, secs] : report.phase_seconds) {
    std::printf("phase %s %.3f s\n", phase.c_str(), secs);
  }
  std::printf("checks attempted=%lld failed=%lld\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  for (const std::string& f : report.failures) {
    std::printf("failure %s\n", f.c_str());
  }

  bool names_ok = true;
  std::string metrics = "{";
  for (size_t i = 0; i < shown.all().size(); ++i) {
    const slimbench::Metric& m = shown.all()[i];
    names_ok = names_ok && slimbench::ValidMetricName(m.name);
    if (i > 0) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  metrics += "}";
  const bool correct = report.failed == 0 && names_ok;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed), metrics.c_str());
  return correct ? 0 : 1;
}

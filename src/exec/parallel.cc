#include "exec/parallel.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>

#include "obs/registry.h"

namespace slimfast {

int32_t ResolveThreads(const ExecOptions& options) {
  if (options.threads > 0) return options.threads;
  const char* env = std::getenv("SLIMFAST_THREADS");
  if (env != nullptr) {
    int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return 1;
}

std::vector<ShardRange> StaticShards(int64_t n, int32_t num_shards) {
  std::vector<ShardRange> shards;
  if (n <= 0 || num_shards <= 0) return shards;
  int64_t k = std::min<int64_t>(n, num_shards);
  int64_t base = n / k;
  int64_t rem = n % k;
  shards.reserve(static_cast<size_t>(k));
  int64_t begin = 0;
  for (int64_t s = 0; s < k; ++s) {
    int64_t size = base + (s < rem ? 1 : 0);
    shards.push_back(ShardRange{static_cast<int32_t>(s), begin, begin + size});
    begin += size;
  }
  return shards;
}

int32_t FixedShardCount(int64_t n) {
  if (n <= 0) return 0;
  return static_cast<int32_t>(std::min<int64_t>(n, kFixedShardCount));
}

Executor::Executor(const ExecOptions& options)
    : threads_(ResolveThreads(options)) {}

void Executor::RunShards(int32_t num_shards,
                         const std::function<void(int32_t)>& body) {
  if (num_shards <= 0) return;
  if (threads_ <= 1 || num_shards == 1) {
    for (int32_t s = 0; s < num_shards; ++s) body(s);
    return;
  }
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(threads_);

  // Per-shard wall times feed the pool task-latency histogram and the
  // imbalance gauge (slowest shard / mean shard). Only the pool path is
  // instrumented — the inline path above has no scheduling to observe —
  // and when observability is off no clocks are read at all. Timed by
  // hand, not by obs::Stage: the imbalance gauge needs the raw per-shard
  // readings before any of them is recorded.
  const bool obs_on = obs::Enabled();
  std::vector<int64_t> shard_ns;
  if (obs_on) shard_ns.assign(static_cast<size_t>(num_shards), 0);

  std::vector<std::exception_ptr> errors(static_cast<size_t>(num_shards));
  // The completion count must be decremented *under* the mutex: if a
  // worker decremented first and locked afterwards, a spurious wakeup
  // could satisfy the waiter's predicate while the worker is still
  // about to touch done_mu/done_cv — and both live on this stack frame,
  // which the caller reuses the moment RunShards returns. Keeping the
  // decrement inside the critical section guarantees every worker is
  // finished with the synchronization objects by the time the waiter
  // can observe zero.
  std::mutex done_mu;
  std::condition_variable done_cv;
  int32_t remaining = num_shards;  // guarded by done_mu
  for (int32_t s = 0; s < num_shards; ++s) {
    pool_->Submit([&, s] {
      std::chrono::steady_clock::time_point start;
      if (obs_on) start = std::chrono::steady_clock::now();
      try {
        body(s);
      } catch (...) {
        errors[static_cast<size_t>(s)] = std::current_exception();
      }
      if (obs_on) {
        shard_ns[static_cast<size_t>(s)] =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
      }
      std::lock_guard<std::mutex> lock(done_mu);
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return remaining == 0; });
  }
  if (obs_on) {
    static obs::LatencyHistogram* task_hist =
        obs::GetHistogram("slimfast_exec_task_seconds");
    static obs::Gauge* imbalance =
        obs::GetGauge("slimfast_exec_shard_imbalance_ratio");
    int64_t total_ns = 0;
    int64_t max_ns = 0;
    for (int64_t ns : shard_ns) {
      task_hist->Record(ns);
      total_ns += ns;
      max_ns = std::max(max_ns, ns);
    }
    if (total_ns > 0) {
      const double mean_ns =
          static_cast<double>(total_ns) / static_cast<double>(num_shards);
      imbalance->Set(static_cast<double>(max_ns) / mean_ns);
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

void RunSharded(Executor* exec, int32_t num_shards,
                const std::function<void(int32_t)>& body) {
  if (exec != nullptr) {
    exec->RunShards(num_shards, body);
    return;
  }
  for (int32_t s = 0; s < num_shards; ++s) body(s);
}

void ParallelFor(Executor* exec, int64_t n,
                 const std::function<void(int64_t)>& fn) {
  const std::vector<ShardRange> shards = StaticShards(n, FixedShardCount(n));
  if (shards.empty()) return;
  RunSharded(exec, static_cast<int32_t>(shards.size()), [&](int32_t s) {
    const ShardRange& range = shards[static_cast<size_t>(s)];
    for (int64_t i = range.begin; i < range.end; ++i) fn(i);
  });
}

}  // namespace slimfast

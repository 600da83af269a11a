#ifndef SLIMFAST_EXEC_PARALLEL_H_
#define SLIMFAST_EXEC_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "exec/options.h"
#include "exec/thread_pool.h"

namespace slimfast {

/// One contiguous shard of an index range: items [begin, end).
struct ShardRange {
  int32_t shard = 0;
  int64_t begin = 0;
  int64_t end = 0;

  int64_t size() const { return end - begin; }
};

/// The fixed shard count all deterministic reductions use. It is a property
/// of the *work*, never of the thread count: per-shard accumulators are
/// combined in shard order, so results are bit-identical whether the shards
/// run on 1 thread or 64.
inline constexpr int32_t kFixedShardCount = 32;

/// Splits [0, n) into min(n, num_shards) contiguous shards whose sizes
/// differ by at most one, preserving index order across shards (shard 0
/// holds the lowest indices). n == 0 yields no shards.
std::vector<ShardRange> StaticShards(int64_t n, int32_t num_shards);

/// Shard count for DeterministicReduce/ParallelFor over `n` items:
/// min(n, kFixedShardCount), independent of the executor's thread count.
int32_t FixedShardCount(int64_t n);

/// Dispatches shards onto a fixed ThreadPool (or inline when serial).
///
/// Construction is always cheap: the pool is spawned lazily on the first
/// multi-shard RunShards call, so a parallel-capable Executor handed to a
/// fully serial pipeline (SGD learning + exact inference) never starts a
/// thread. The Executor is the single knob the layers above share:
/// learners, the synthetic generator, and the eval harness all take an
/// `Executor*` and treat nullptr as serial with the *same* shard structure,
/// so thread count never changes results.
///
/// An Executor is driven from one thread at a time (shard bodies run on
/// its workers, but RunShards itself is not re-entrant).
class Executor {
 public:
  /// A serial executor (1 thread, no pool).
  Executor() : threads_(1) {}

  /// Resolves `options` (see ResolveThreads); the worker pool is created
  /// on first use.
  explicit Executor(const ExecOptions& options);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  int32_t threads() const { return threads_; }

  /// Runs body(shard) for every shard in [0, num_shards) and blocks until
  /// all complete. Exceptions thrown by shard bodies are captured; the one
  /// from the lowest-numbered failing shard is rethrown (matching what a
  /// serial in-order run would surface first).
  void RunShards(int32_t num_shards,
                 const std::function<void(int32_t)>& body);

 private:
  int32_t threads_;
  std::unique_ptr<ThreadPool> pool_;  // created lazily; null while serial
};

/// Runs `body(shard)` over every shard, inline when `exec` is null.
void RunSharded(Executor* exec, int32_t num_shards,
                const std::function<void(int32_t)>& body);

/// Element-wise parallel loop over [0, n) with static contiguous sharding.
/// `fn(i)` must be independent across i (no shared mutable state).
void ParallelFor(Executor* exec, int64_t n,
                 const std::function<void(int64_t)>& fn);

/// Deterministic parallel reduction over [0, n).
///
/// The range is cut into FixedShardCount(n) contiguous shards; each shard
/// gets its own accumulator (a copy of `init`) filled by
/// `body(range, &acc)`, and the per-shard accumulators are folded with
/// `combine(&total, shard_acc)` in ascending shard order. Because both the
/// shard structure and the combine order depend only on n, the result is
/// bit-identical for every thread count, including serial (exec == null).
template <typename Acc, typename Body, typename Combine>
Acc DeterministicReduce(Executor* exec, int64_t n, const Acc& init,
                        const Body& body, const Combine& combine) {
  const std::vector<ShardRange> shards = StaticShards(n, FixedShardCount(n));
  if (shards.empty()) return init;
  std::vector<Acc> partial(shards.size(), init);
  RunSharded(exec, static_cast<int32_t>(shards.size()), [&](int32_t s) {
    body(shards[static_cast<size_t>(s)], &partial[static_cast<size_t>(s)]);
  });
  Acc total = init;
  for (size_t s = 0; s < partial.size(); ++s) {
    combine(&total, partial[s]);
  }
  return total;
}

}  // namespace slimfast

#endif  // SLIMFAST_EXEC_PARALLEL_H_

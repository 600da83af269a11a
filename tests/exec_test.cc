// The exec layer's contracts: fixed static sharding, bit-identical
// deterministic reductions for every thread count, exception propagation,
// and seed-stable per-stream random seeds. These are the guarantees every
// parallel hot path (ERM, EM, synth, eval grid) builds on.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "exec/options.h"
#include "exec/parallel.h"
#include "exec/sharded_rng.h"
#include "exec/thread_pool.h"
#include "util/random.h"

namespace slimfast {
namespace {

// ---------------------------------------------------------------- options

TEST(ExecOptionsTest, ExplicitThreadsWin) {
  ExecOptions options;
  options.threads = 3;
  EXPECT_EQ(ResolveThreads(options), 3);
}

TEST(ExecOptionsTest, DefaultsToEnvThenOne) {
  ExecOptions options;  // threads = 0
  ::unsetenv("SLIMFAST_THREADS");
  EXPECT_EQ(ResolveThreads(options), 1);
  ::setenv("SLIMFAST_THREADS", "5", 1);
  EXPECT_EQ(ResolveThreads(options), 5);
  ::setenv("SLIMFAST_THREADS", "garbage", 1);
  EXPECT_EQ(ResolveThreads(options), 1);
  ::unsetenv("SLIMFAST_THREADS");
}

// ----------------------------------------------------------- thread pool

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor drains the queue
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
}

// --------------------------------------------------------- static shards

TEST(StaticShardsTest, ZeroItemsYieldsNoShards) {
  EXPECT_TRUE(StaticShards(0, 8).empty());
  EXPECT_EQ(FixedShardCount(0), 0);
}

TEST(StaticShardsTest, OneShardCoversEverything) {
  auto shards = StaticShards(10, 1);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].begin, 0);
  EXPECT_EQ(shards[0].end, 10);
}

TEST(StaticShardsTest, MoreShardsThanItemsCollapsesToOnePerItem) {
  auto shards = StaticShards(3, 8);
  ASSERT_EQ(shards.size(), 3u);
  for (size_t s = 0; s < shards.size(); ++s) {
    EXPECT_EQ(shards[s].shard, static_cast<int32_t>(s));
    EXPECT_EQ(shards[s].size(), 1);
  }
}

TEST(StaticShardsTest, ShardsAreContiguousOrderedAndBalanced) {
  auto shards = StaticShards(103, 8);
  ASSERT_EQ(shards.size(), 8u);
  int64_t expected_begin = 0;
  for (const ShardRange& range : shards) {
    EXPECT_EQ(range.begin, expected_begin);
    EXPECT_GE(range.size(), 103 / 8);
    EXPECT_LE(range.size(), 103 / 8 + 1);
    expected_begin = range.end;
  }
  EXPECT_EQ(expected_begin, 103);
}

// ----------------------------------------------------------- ParallelFor

TEST(ParallelForTest, ZeroItemsNeverInvokesBody) {
  Executor exec(ExecOptions{4});
  bool called = false;
  ParallelFor(&exec, 0, [&](int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int32_t threads : {1, 4}) {
    Executor exec(ExecOptions{threads});
    std::vector<std::atomic<int>> hits(257);
    ParallelFor(&exec, 257, [&](int64_t i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, NullExecutorRunsInline) {
  std::vector<int> hits(10, 0);
  ParallelFor(nullptr, 10, [&](int64_t i) { ++hits[static_cast<size_t>(i)]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST(ParallelForTest, ExceptionPropagatesFromSerialAndParallel) {
  auto thrower = [](int64_t i) {
    if (i == 5) throw std::runtime_error("shard failure");
  };
  Executor parallel(ExecOptions{4});
  EXPECT_THROW(ParallelFor(&parallel, 32, thrower), std::runtime_error);
  Executor serial(ExecOptions{1});
  EXPECT_THROW(ParallelFor(&serial, 32, thrower), std::runtime_error);
  EXPECT_THROW(ParallelFor(nullptr, 32, thrower), std::runtime_error);
}

TEST(ParallelForTest, LowestFailingShardWins) {
  // Shards 1 and 3 both throw; the rethrown error must be shard 1's, on
  // every thread count, matching what a serial in-order run surfaces.
  Executor exec(ExecOptions{4});
  auto body = [](int32_t s) {
    if (s == 1) throw std::runtime_error("first");
    if (s == 3) throw std::runtime_error("second");
  };
  for (int trial = 0; trial < 10; ++trial) {
    try {
      exec.RunShards(8, body);
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "first");
    }
  }
}

// -------------------------------------------------- DeterministicReduce

double ReduceSum(Executor* exec, const std::vector<double>& values) {
  return DeterministicReduce(
      exec, static_cast<int64_t>(values.size()), 0.0,
      [&](const ShardRange& range, double* acc) {
        for (int64_t i = range.begin; i < range.end; ++i) {
          *acc += values[static_cast<size_t>(i)];
        }
      },
      [](double* total, const double& shard) { *total += shard; });
}

TEST(DeterministicReduceTest, BitIdenticalAcrossThreadCounts) {
  // Floating-point addition is not associative, so bit-identity only holds
  // because the shard structure and the combine order are fixed. Use
  // adversarial magnitudes to make any grouping change visible.
  Rng rng(7);
  std::vector<double> values(10007);
  for (double& v : values) {
    v = rng.Uniform(-1.0, 1.0) * std::pow(10.0, rng.UniformInt(20) - 10);
  }
  Executor serial(ExecOptions{1});
  Executor two(ExecOptions{2});
  Executor eight(ExecOptions{8});
  double base = ReduceSum(nullptr, values);
  EXPECT_EQ(base, ReduceSum(&serial, values));
  EXPECT_EQ(base, ReduceSum(&two, values));
  EXPECT_EQ(base, ReduceSum(&eight, values));
}

TEST(DeterministicReduceTest, EmptyRangeReturnsInit) {
  Executor exec(ExecOptions{4});
  double sum = DeterministicReduce(
      &exec, 0, 42.0, [](const ShardRange&, double*) { FAIL(); },
      [](double*, const double&) { FAIL(); });
  EXPECT_EQ(sum, 42.0);
}

TEST(DeterministicReduceTest, CombinesInShardOrder) {
  // Concatenating per-shard vectors must reproduce the input order.
  std::vector<int64_t> items(1000);
  std::iota(items.begin(), items.end(), 0);
  Executor exec(ExecOptions{4});
  std::vector<int64_t> out = DeterministicReduce(
      &exec, static_cast<int64_t>(items.size()), std::vector<int64_t>{},
      [&](const ShardRange& range, std::vector<int64_t>* acc) {
        for (int64_t i = range.begin; i < range.end; ++i) {
          acc->push_back(items[static_cast<size_t>(i)]);
        }
      },
      [](std::vector<int64_t>* total, const std::vector<int64_t>& shard) {
        total->insert(total->end(), shard.begin(), shard.end());
      });
  EXPECT_EQ(out, items);
}

// ------------------------------------------------------------ StreamSeed

TEST(StreamSeedTest, DependsOnlyOnSeedAndIndexAndReproduces) {
  EXPECT_EQ(StreamSeed(1, 0), StreamSeed(1, 0));
  EXPECT_NE(StreamSeed(1, 0), StreamSeed(1, 1));
  EXPECT_NE(StreamSeed(1, 0), StreamSeed(2, 0));
  // The formula is part of the synthetic-replica contract: replica i of a
  // batch is generated at StreamSeed(base, i), so a changed mix would
  // silently change every replica.
  EXPECT_EQ(StreamSeed(1, 0), 0xbeeb8da1658eec67ULL);
  // An Rng seeded from a stream seed reproduces, and distinct streams
  // produce distinct sequences.
  Rng a(StreamSeed(123, 2));
  Rng b(StreamSeed(123, 2));
  Rng c(StreamSeed(123, 3));
  for (int i = 0; i < 4; ++i) {
    const double u = a.Uniform();
    EXPECT_EQ(u, b.Uniform());
    EXPECT_NE(u, c.Uniform());
  }
}

}  // namespace
}  // namespace slimfast

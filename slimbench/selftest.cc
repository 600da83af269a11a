// Self-tests of the benchmark harness. run.py runs this binary before every
// benchmark run; it can also be run directly:
//
//   .bench_build/slimbench_selftest
//
// Exits non-zero on the first failing expectation.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using namespace slimbench;

void TestPercentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  EXPECT(Percentile(&v, 0.50) == 50.0);
  EXPECT(Percentile(&v, 0.95) == 95.0);
  EXPECT(Percentile(&v, 0.99) == 99.0);
  EXPECT(Percentile(&v, 1.00) == 100.0);
  std::vector<double> one = {7.0};
  EXPECT(Percentile(&one, 0.99) == 7.0);
  std::vector<double> empty;
  EXPECT(Percentile(&empty, 0.5) == 0.0);
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
}

void TestTailRule() {
  // p95 of 200 samples is rank 190: ten samples lie beyond it.
  EXPECT(PercentileHasTail(200, 0.95));
  EXPECT(!PercentileHasTail(199, 0.95));
  // p99 needs 1000.
  EXPECT(PercentileHasTail(1000, 0.99));
  EXPECT(!PercentileHasTail(999, 0.99));
  EXPECT(!PercentileHasTail(0, 0.5));
}

void TestOpenLoopLateness() {
  // Fake clock: every call takes 10 ns, except call 2, which stalls for
  // 100 ns. Requests are due every 20 ns.
  int64_t clock = 0;
  auto now = [&] { return clock; };
  auto wait_until = [&](int64_t t) { clock = std::max(clock, t); };
  auto call = [&](int64_t i) {
    clock += (i == 2) ? 100 : 10;
    return i != 4;  // request 4 fails
  };
  OpenLoopResult r;
  RunOpenLoop(8, 0, 20, now, wait_until, call, &r);
  EXPECT(r.failed == 1);
  EXPECT(r.latency_ns.size() == 8);
  // Requests 0, 1 are on time; 2 starts on time but stalls.
  EXPECT(r.lateness_ns[0] == 0 && r.lateness_ns[1] == 0);
  EXPECT(r.lateness_ns[2] == 0 && r.latency_ns[2] == 100);
  // Request 3 was due at 60 but starts at 140: late by the stall.
  EXPECT(r.lateness_ns[3] == 80);
  EXPECT(r.latency_ns[3] == 90);
  // The backlog drains at 10 ns per request against a 20 ns schedule.
  EXPECT(r.lateness_ns[4] == 70 && r.lateness_ns[5] == 60);
  EXPECT(r.lateness_ns[7] == 40);
}

void TestSelfTime() {
  std::vector<Span> spans = {
      {1, 0, "run", 0, 100},
      {2, 1, "core.learn", 10, 60},
      {3, 2, "core.optimizer", 20, 30},
      {4, 1, "storage.wal_sync", 50, 80},  // overlaps learn: counted once
      {5, 1, "core.learn", 90, 95},
  };
  const auto self = SelfSeconds(spans);
  const auto total = TotalSeconds(spans);
  EXPECT(std::fabs(self.at("run") - 25e-9) < 1e-15);  // 100 - |[10,95)∪..|
  EXPECT(std::fabs(self.at("core.learn") - (40e-9 + 5e-9)) < 1e-15);
  EXPECT(std::fabs(self.at("core.optimizer") - 10e-9) < 1e-15);
  EXPECT(std::fabs(self.at("storage.wal_sync") - 30e-9) < 1e-15);
  EXPECT(std::fabs(total.at("core.learn") - 55e-9) < 1e-15);

  Tracer tracer(true);
  tracer.Begin("a");
  tracer.Begin("b");
  tracer.End();
  tracer.End();
  EXPECT(tracer.spans().size() == 2);
  EXPECT(tracer.spans()[1].parent == tracer.spans()[0].id);
  Tracer off(false);
  off.Begin("a");
  off.End();
  EXPECT(off.spans().empty());
}

void TestMetricNames() {
  EXPECT(ValidMetricName("fit_s"));
  EXPECT(ValidMetricName("serve.protocol.query_us.p99"));
  EXPECT(ValidMetricName("core.learn.s.genomics"));
  EXPECT(ValidMetricName("a-b_c.9"));
  EXPECT(!ValidMetricName(""));
  EXPECT(!ValidMetricName("bad name"));
  EXPECT(!ValidMetricName("p99{verb}"));
  EXPECT(!ValidMetricName("x/y"));
  EXPECT(JsonString("a\"b") == "\"a\\\"b\"");
}

void TestInputsDeterministic() {
  for (const char* workload : {"batch_fit", "stream_commit", "query_mix"}) {
    WorkloadShape shape;
    EXPECT(ShapeFor(workload, &shape));
    auto a = GenerateInputs(shape, 11);
    auto b = GenerateInputs(shape, 11);
    auto c = GenerateInputs(shape, 12);
    EXPECT(a.ok() && b.ok() && c.ok());
    if (!(a.ok() && b.ok() && c.ok())) continue;
    const std::string sa = SerializeInputs(a.ValueOrDie());
    EXPECT(!sa.empty());
    EXPECT(sa == SerializeInputs(b.ValueOrDie()));
    EXPECT(sa != SerializeInputs(c.ValueOrDie()));
    EXPECT(static_cast<int32_t>(a.ValueOrDie().serve.stream.size()) ==
           kStreamCommits);
    EXPECT(static_cast<int32_t>(a.ValueOrDie().serve.reads.size()) ==
           kReaders);
  }
  WorkloadShape unknown;
  EXPECT(!ShapeFor("no_such_workload", &unknown));
}

}  // namespace

int main() {
  TestPercentile();
  TestTailRule();
  TestOpenLoopLateness();
  TestSelfTime();
  TestMetricNames();
  TestInputsDeterministic();
  if (g_failures > 0) {
    std::fprintf(stderr, "slimbench_selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("slimbench_selftest: all passed\n");
  return 0;
}

// Unit tests of the benchmark's own machinery: percentile selection, the
// open-loop scheduler, metric naming, span attribution and workload
// generation.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "attribution.h"
#include "hostspeed.h"
#include "openloop.h"
#include "report.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(Percentile, PicksHighestWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(19), 50.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(40), 75.0);
  EXPECT_EQ(tail_percentile(99), 75.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(999), 95.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(9999), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(100000), 99.99);
}

TEST(Percentile, CapBoundsTheTail) {
  EXPECT_EQ(tail_percentile(100000, 75.0), 75.0);
  EXPECT_EQ(tail_percentile(100000, 99.0), 99.0);
  EXPECT_EQ(tail_percentile(30, 99.0), 50.0);
}

TEST(Percentile, SummaryReportsCountAndPercentile) {
  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(i);
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.tail_q, 99.0);
  EXPECT_DOUBLE_EQ(s.p50, 500.5);
  EXPECT_NEAR(s.tail, 990.01, 1e-9);
  EXPECT_EQ(describe(s), "p99 of n=1000");
  EXPECT_THROW((void)summarize({}), std::invalid_argument);
}

TEST(Percentile, MedianAndIqr) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(iqr({1.0, 2.0, 3.0, 4.0, 5.0}), 2.0);
}

TEST(HostSpeed, ScaleIsPositiveAndAffinityIsRestored) {
  const std::vector<int> before = allowed_cpus();
  ASSERT_FALSE(before.empty());
  const double pinned = host_scale(before.back());
  EXPECT_TRUE(std::isfinite(pinned));
  EXPECT_GT(pinned, 0.0);
  EXPECT_EQ(allowed_cpus(), before);
  const double here = host_scale(-1);
  EXPECT_TRUE(std::isfinite(here));
  EXPECT_GT(here, 0.0);
}

// A consumer thread that completes released slots in order, stalling on
// one of them.
class StallingConsumer {
 public:
  StallingConsumer(OpenLoop& loop, std::size_t stall_slot,
                   std::chrono::milliseconds stall)
      : thread_([this, &loop, stall_slot, stall] {
          for (std::size_t done = 0; done < loop.slots(); ++done) {
            std::size_t k = 0;
            {
              std::unique_lock<std::mutex> lock(mutex_);
              cv_.wait(lock, [this] { return !queue_.empty(); });
              k = queue_.front();
              queue_.pop_front();
            }
            if (k == stall_slot) std::this_thread::sleep_for(stall);
            loop.complete(k);
          }
        }) {}
  ~StallingConsumer() { thread_.join(); }
  void push(std::size_t k) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(k);
    }
    cv_.notify_one();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::size_t> queue_;
  std::thread thread_;
};

TEST(OpenLoop, StallIsChargedToTheSlotsBehindIt) {
  OpenLoop loop(1000.0, 40);  // one slot per millisecond
  {
    StallingConsumer consumer(loop, 5, std::chrono::milliseconds(30));
    loop.run([&consumer](std::size_t k) { consumer.push(k); });
  }
  ASSERT_EQ(loop.completed(), 40u);
  // Slot 6 was released on time but waited behind the 30 ms stall: its
  // latency, counted from its due time, carries most of the stall.
  EXPECT_LT(loop.lag_s(6), 0.010);
  EXPECT_GT(loop.latency_s(5), 0.029);
  EXPECT_GT(loop.latency_s(6), 0.020);
  EXPECT_GT(loop.latency_s(10), 0.015);
  // Latency is measured from the due time, never from the release.
  for (std::size_t k = 0; k < 40; ++k) {
    EXPECT_GE(loop.done_at(k), loop.due(k));
    EXPECT_GE(loop.released(k), loop.due(k));
  }
}

TEST(OpenLoop, ReportsGeneratorLateness) {
  OpenLoop loop(1000.0, 10);
  loop.run([&loop](std::size_t k) {
    if (k == 3) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    loop.complete(k);
  });
  // Slot 4 was due 1 ms after slot 3 but released only after the 20 ms
  // blocking release: the generator ran late, and the lateness is part of
  // slot 4's latency because latency starts at the due time.
  EXPECT_GT(loop.lag_s(4), 0.015);
  EXPECT_GE(loop.latency_s(4), loop.lag_s(4));
  EXPECT_LT(loop.lag_s(0), 0.010);
}

TEST(OpenLoop, UndecidedSlotHasInfiniteLatency) {
  OpenLoop loop(10000.0, 3);
  loop.run([&loop](std::size_t k) {
    if (k != 1) loop.complete(k);
  });
  EXPECT_EQ(loop.completed(), 2u);
  EXPECT_FALSE(loop.done(1));
  EXPECT_TRUE(std::isinf(loop.latency_s(1)));
  EXPECT_THROW(OpenLoop(0.0, 1), std::invalid_argument);
}

TEST(MetricNames, Validation) {
  EXPECT_TRUE(valid_metric_name("decide_p50_ms"));
  EXPECT_TRUE(valid_metric_name("bdma.p2a_ms"));
  EXPECT_TRUE(valid_metric_name("9lives-x.y_z"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/bad"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
}

TEST(MetricNames, UniquePerRun) {
  MetricSet metrics;
  metrics.add("setup_s", 0.5, "s");
  EXPECT_THROW(metrics.add("setup_s", 0.7, "s"), std::invalid_argument);
  EXPECT_THROW(metrics.add("bad name", 1.0, "s"), std::invalid_argument);
  const eotora::util::Json doc = result_json(true, 10, 0, metrics);
  ASSERT_EQ(doc.size(), 4u);
  EXPECT_TRUE(doc.at("correct").as_bool());
  EXPECT_EQ(doc.at("attempted").as_number(), 10.0);
  EXPECT_EQ(doc.at("metrics").at("setup_s").at("value").as_number(), 0.5);
  EXPECT_EQ(doc.at("metrics").at("setup_s").at("unit").as_string(), "s");
}

TEST(Attribution, SelfTimeAndUncoveredWallTime) {
  SpanRecorder spans;
  const int root = spans.add("slot", 1.0, 2.0, 7);
  spans.add("child", 1.1, 1.5, 7, root);
  spans.add("child", 1.4, 1.6, 7, root);  // overlaps the first child
  spans.add("setup", 0.0, 0.5, 0);
  const auto totals = spans.totals();
  EXPECT_NEAR(totals.at("slot").total_s, 1.0, 1e-12);
  EXPECT_NEAR(totals.at("slot").self_s, 0.5, 1e-12);
  EXPECT_EQ(totals.at("child").count, 2u);
  // [0, 2] is covered by setup [0, 0.5] and slot [1, 2]: 0.5 s uncovered.
  EXPECT_NEAR(spans.unattributed_fraction({{0.0, 2.0}}), 0.25, 1e-12);
  EXPECT_NEAR(covered_length({{0.0, 1.0}, {0.5, 3.0}}, 0.0, 2.0), 2.0, 1e-12);
}

TEST(Workloads, GenerationIsByteIdenticalPerSeed) {
  for (const char* workload : {"paper-week", "serve-churn", "metro-10k"}) {
    const std::size_t slots = std::string(workload) == "metro-10k" ? 1 : 3;
    const auto a = workload_bytes(workload, 7, slots);
    const auto b = workload_bytes(workload, 7, slots);
    const auto c = workload_bytes(workload, 8, slots);
    EXPECT_FALSE(a.empty()) << workload;
    EXPECT_EQ(a, b) << workload;
    EXPECT_NE(a, c) << workload;
  }
  EXPECT_THROW((void)workload_bytes("nope", 1, 1), std::invalid_argument);
}

TEST(Workloads, ScenarioSeedsAreDisjointAcrossSeeds) {
  const auto a = scenario_seeds(1, 4);
  const auto b = scenario_seeds(2, 4);
  EXPECT_EQ(a, (std::vector<std::uint64_t>{4, 5, 6, 7}));
  EXPECT_EQ(b, (std::vector<std::uint64_t>{8, 9, 10, 11}));
}

}  // namespace
}  // namespace perfbench

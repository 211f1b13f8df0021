// Unit tests for the batch-estimation runtime: thread pool, parallel_for
// (including nesting and exception propagation).
#include "runtime/thread_pool.hpp"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace rge::runtime {
namespace {

TEST(ThreadPool, SizeDefaultsToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  ThreadPool four(4);
  EXPECT_EQ(four.size(), 4u);
}

TEST(ThreadPool, SubmittedTasksRun) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    parallel_for(pool, n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads
                                   << " threads";
    }
  }
}

TEST(ParallelFor, ZeroIterationsIsNoOp) {
  ThreadPool pool(2);
  bool ran = false;
  parallel_for(pool, 0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, RespectsGrainAndStillCoversAll) {
  ThreadPool pool(3);
  const std::size_t n = 517;  // deliberately not a multiple of the grain
  std::vector<int> hits(n, 0);
  std::mutex mu;
  parallel_for(
      pool, n,
      [&](std::size_t i) {
        std::lock_guard<std::mutex> lock(mu);
        ++hits[i];
      },
      64);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(n));
}

TEST(ParallelFor, NestedLoopsDoNotDeadlock) {
  // Outer trips x inner sources, the exact shape run_pipeline_batch uses.
  // Caller participation guarantees progress even on a pool of size 1.
  for (std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    constexpr std::size_t kOuter = 6;
    constexpr std::size_t kInner = 8;
    std::vector<std::vector<int>> cells(kOuter,
                                        std::vector<int>(kInner, 0));
    parallel_for(pool, kOuter, [&](std::size_t o) {
      parallel_for(pool, kInner, [&](std::size_t i) { cells[o][i] = 1; });
    });
    for (const auto& row : cells) {
      for (int v : row) ASSERT_EQ(v, 1);
    }
  }
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 100,
                   [](std::size_t i) {
                     if (i == 17) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, DeterministicSlotWrites) {
  // body(i) writing slot i gives results independent of thread count.
  auto run = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> out(256, 0.0);
    parallel_for(pool, out.size(), [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 0.1 + 1.0 / (1.0 + i);
    });
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

}  // namespace
}  // namespace rge::runtime

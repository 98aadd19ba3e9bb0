// The persistent pool behind parallel_for: started once, reused for every
// parallel region, correct under heavy call churn and concurrent owners.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "sim/parallel_runner.hpp"
#include "sim/thread_pool.hpp"

namespace {

using rdcn::sim::ThreadPool;

TEST(ThreadPool, NoThreadSpawnPerCall) {
  ThreadPool& pool = ThreadPool::instance();
  const std::uint64_t spawned_before = pool.threads_spawned();
  EXPECT_EQ(spawned_before, pool.num_workers());
  // Hundreds of parallel regions: the spawn counter must not move.
  for (int round = 0; round < 300; ++round) {
    std::atomic<std::uint64_t> sum{0};
    rdcn::sim::parallel_for(64, [&](std::size_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 64u * 65 / 2);
  }
  EXPECT_EQ(pool.threads_spawned(), spawned_before);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  std::vector<std::atomic<int>> hits(10000);
  rdcn::sim::parallel_for(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SingleThreadRequestRunsInline) {
  // num_threads = 1 must execute on the calling thread (the figure benches
  // rely on this for undistorted panel-b timing).
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> all_inline{true};
  rdcn::sim::parallel_for(
      100,
      [&](std::size_t) {
        if (std::this_thread::get_id() != caller) all_inline = false;
      },
      /*num_threads=*/1);
  EXPECT_TRUE(all_inline.load());
}

TEST(ThreadPool, ZeroCountIsANoop) {
  rdcn::sim::parallel_for(0, [&](std::size_t) { FAIL(); });
}

TEST(ThreadPool, NestedParallelForFallsBackInline) {
  // A parallel_for issued from inside a pool worker must not deadlock.
  std::atomic<std::uint64_t> total{0};
  rdcn::sim::parallel_for(8, [&](std::size_t) {
    rdcn::sim::parallel_for(50, [&](std::size_t i) {
      total.fetch_add(i, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 8u * (50 * 49 / 2));
}

TEST(ThreadPool, ConcurrentOwnersBothComplete) {
  // Two caller threads race their own parallel regions on the shared pool.
  std::atomic<std::uint64_t> a{0}, b{0};
  std::thread t1([&] {
    for (int r = 0; r < 50; ++r) {
      rdcn::sim::parallel_for(
          200, [&](std::size_t) { a.fetch_add(1, std::memory_order_relaxed); });
    }
  });
  std::thread t2([&] {
    for (int r = 0; r < 50; ++r) {
      rdcn::sim::parallel_for(
          200, [&](std::size_t) { b.fetch_add(1, std::memory_order_relaxed); });
    }
  });
  t1.join();
  t2.join();
  EXPECT_EQ(a.load(), 50u * 200);
  EXPECT_EQ(b.load(), 50u * 200);
}

TEST(ThreadPool, MutableLambdaAndMoveOnlyState) {
  // The templated trampoline must work for callables std::function could
  // not cheaply wrap (move-only captures).
  auto counter = std::make_unique<std::atomic<int>>(0);
  std::atomic<int>* raw = counter.get();
  auto fn = [c = std::move(counter)](std::size_t) {
    c->fetch_add(1, std::memory_order_relaxed);
  };
  rdcn::sim::parallel_for(128, fn);
  // fn still owns the counter; re-run to prove it was not consumed.
  rdcn::sim::parallel_for(128, fn);
  EXPECT_EQ(raw->load(), 256);
}

}  // namespace

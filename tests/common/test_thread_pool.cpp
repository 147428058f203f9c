// Tests for the shared parallel execution layer (common/parallel.hpp):
// coverage/exclusivity of the partition, serial fallback, reuse,
// exception propagation, nesting, and partition determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace tasd::rt {
namespace {

TEST(ThreadPool, SerialPoolSpawnsNoWorkers) {
  ThreadPool zero(0);
  EXPECT_EQ(zero.workers(), 0u);
  EXPECT_EQ(zero.num_threads(), 1u);
  ThreadPool one(1);
  EXPECT_EQ(one.workers(), 0u);
  EXPECT_EQ(one.num_threads(), 1u);
}

TEST(ThreadPool, ParallelPoolSpawnsWorkers) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  EXPECT_EQ(pool.workers(), 3u);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {0u, 1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    for (std::size_t len : {0u, 1u, 2u, 7u, 64u, 1000u}) {
      std::vector<std::atomic<int>> hits(len);
      pool.parallel_for(0, len, 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < len; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads
                                     << " len=" << len << " i=" << i;
    }
  }
}

TEST(ThreadPool, RespectsRangeOffset) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(20);
  pool.parallel_for(5, 15, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < 20; ++i)
    EXPECT_EQ(hits[i].load(), (i >= 5 && i < 15) ? 1 : 0) << "i=" << i;
}

TEST(ThreadPool, PartitionIsDeterministicAndOrdered) {
  ThreadPool pool(4);
  const auto a = pool.partition(103, 1);
  const auto b = pool.partition(103, 1);
  EXPECT_EQ(a, b);
  ASSERT_GE(a.size(), 2u);
  EXPECT_EQ(a.front(), 0u);
  EXPECT_EQ(a.back(), 103u);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_LT(a[i - 1], a[i]);
  // At most num_threads chunks.
  EXPECT_LE(a.size() - 1, 4u);
}

TEST(ThreadPool, GrainLimitsChunkCount) {
  ThreadPool pool(8);
  // 20 iterations at grain 16 -> a single chunk.
  EXPECT_EQ(pool.partition(20, 16).size() - 1, 1u);
  // grain 5 -> at most 4 chunks.
  EXPECT_LE(pool.partition(20, 5).size() - 1, 4u);
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<long> sum{0};
    pool.parallel_for(0, 100, 1, [&](std::size_t b, std::size_t e) {
      long local = 0;
      for (std::size_t i = b; i < e; ++i) local += static_cast<long>(i);
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(ThreadPool, PropagatesChunkException) {
  for (std::size_t threads : {0u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(0, 100, 1,
                          [&](std::size_t b, std::size_t) {
                            if (b == 0) throw Error("chunk failure");
                          }),
        Error);
    // Pool stays usable after a failed run.
    std::atomic<int> count{0};
    pool.parallel_for(0, 10, 1, [&](std::size_t b, std::size_t e) {
      count.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(count.load(), 10);
  }
}

TEST(ThreadPool, RecoversAfterExceptionsAcrossManyRounds) {
  // A long-lived pool (the serving engine's execution substrate) must
  // survive arbitrary interleavings of throwing and clean rounds.
  for (std::size_t threads : {0u, 2u, 8u}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 20; ++round) {
      if (round % 2 == 0) {
        EXPECT_THROW(
            pool.parallel_for(0, 64, 1,
                              [&](std::size_t b, std::size_t) {
                                if (b % 2 == 0) throw Error("round failure");
                              }),
            Error)
            << "threads=" << threads << " round=" << round;
      } else {
        std::atomic<long> sum{0};
        pool.parallel_for(0, 64, 1, [&](std::size_t b, std::size_t e) {
          long local = 0;
          for (std::size_t i = b; i < e; ++i) local += static_cast<long>(i);
          sum.fetch_add(local);
        });
        EXPECT_EQ(sum.load(), 2016)
            << "threads=" << threads << " round=" << round;
      }
    }
  }
}

TEST(ThreadPool, EveryChunkThrowingPropagatesExactlyOneException) {
  for (std::size_t threads : {0u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::atomic<int> attempts{0};
    try {
      pool.parallel_for(0, 100, 1, [&](std::size_t, std::size_t) {
        attempts.fetch_add(1);
        throw Error("all chunks fail");
      });
      FAIL() << "should have thrown (threads=" << threads << ")";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("all chunks fail"),
                std::string::npos);
    }
    // Every chunk ran to its throw; none was abandoned mid-queue.
    EXPECT_EQ(attempts.load(),
              static_cast<int>(pool.partition(100, 1).size() - 1));
    std::atomic<int> count{0};
    pool.parallel_for(0, 10, 1, [&](std::size_t b, std::size_t e) {
      count.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(count.load(), 10) << "pool unusable after mass failure";
  }
}

TEST(ThreadPool, NonTasdExceptionsPropagateToo) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 16, 1,
                                 [&](std::size_t b, std::size_t) {
                                   if (b == 0) throw std::bad_alloc();
                                 }),
               std::bad_alloc);
  std::atomic<int> count{0};
  pool.parallel_for(0, 16, 1, [&](std::size_t b, std::size_t e) {
    count.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, ExceptionInNestedParallelForReachesOuterCaller) {
  for (std::size_t threads : {0u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(0, 8, 1,
                          [&](std::size_t b, std::size_t) {
                            pool.parallel_for(
                                0, 4, 1, [&](std::size_t nb, std::size_t) {
                                  if (b == 0 && nb == 0)
                                    throw Error("nested failure");
                                });
                          }),
        Error)
        << "threads=" << threads;
    // Outer and inner levels both stay usable.
    std::atomic<int> total{0};
    pool.parallel_for(0, 4, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        pool.parallel_for(0, 2, 1, [&](std::size_t nb, std::size_t ne) {
          total.fetch_add(static_cast<int>(ne - nb));
        });
      }
    });
    EXPECT_EQ(total.load(), 8) << "threads=" << threads;
  }
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  // Without the reentrancy guard this deadlocks (workers waiting on work
  // they themselves must execute).
  pool.parallel_for(0, 8, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      pool.parallel_for(0, 4, 1, [&](std::size_t nb, std::size_t ne) {
        total.fetch_add(static_cast<int>(ne - nb));
      });
    }
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(5, 5, 1,
                    [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, DefaultPoolIsConsistent) {
  EXPECT_GE(default_num_threads(), 1u);
  EXPECT_EQ(default_pool().num_threads(), default_num_threads());
  std::atomic<int> count{0};
  parallel_for(0, 17, 1, [&](std::size_t b, std::size_t e) {
    count.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(count.load(), 17);
}

TEST(ForEachIndex, RunsEveryIndexExactlyOnce) {
  for (std::size_t threads : {0u, 1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    for (std::size_t count : {0u, 1u, 2u, 5u, 37u}) {
      std::vector<std::atomic<int>> hits(count);
      for_each_index(pool, count, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads
                                     << " count=" << count << " i=" << i;
    }
  }
}

TEST(ForEachIndex, SerialAndNestedCallsRunInIndexOrder) {
  ThreadPool serial(1);
  std::vector<std::size_t> order;
  for_each_index(serial, 6, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));

  // Inside a task the nested call runs inline, in order, on that thread.
  ThreadPool pool(4);
  std::vector<std::vector<std::size_t>> inner(8);
  for_each_index(pool, inner.size(), [&](std::size_t i) {
    for_each_index(pool, 5, [&](std::size_t j) { inner[i].push_back(j); });
  });
  for (const auto& v : inner)
    EXPECT_EQ(v, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ForEachIndex, PropagatesTaskException) {
  ThreadPool pool(3);
  EXPECT_THROW(for_each_index(pool, 10,
                              [](std::size_t i) {
                                if (i == 7) throw Error("task failure");
                              }),
               Error);
  // The pool stays usable.
  std::atomic<int> count{0};
  for_each_index(pool, 10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

}  // namespace
}  // namespace tasd::rt

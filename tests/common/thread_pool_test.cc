#include "gter/common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <shared_mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace gter {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  TaskGroup group;
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit(&group, [&counter] { counter.fetch_add(1); })
                    .ok());
  }
  pool.Wait(&group);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  TaskGroup group;
  pool.Wait(&group);  // must not hang
}

TEST(ThreadPoolTest, MultipleWaitCycles) {
  ThreadPool pool(3);
  TaskGroup group;
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(pool.Submit(&group, [&counter] { counter.fetch_add(1); })
                      .ok());
    }
    pool.Wait(&group);
    EXPECT_EQ(counter.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  TaskGroup group;
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.Submit(&group, [&counter] { counter.fetch_add(1); })
                    .ok());
  }
  pool.Wait(&group);
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, DefaultPoolIsSingleton) {
  EXPECT_EQ(ThreadPool::Default(), ThreadPool::Default());
}

TEST(ParallelForTest, CoversWholeRangeExactlyOnce) {
  ThreadPool pool(4);
  const ExecContext ctx = ExecContext::WithPool(&pool);
  std::vector<std::atomic<int>> touched(1000);
  ParallelFor(ctx, 0, 1000, 10, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) touched[i].fetch_add(1);
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  const ExecContext ctx = ExecContext::WithPool(&pool);
  bool called = false;
  ParallelFor(ctx, 5, 5, 1, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, NullPoolRunsInline) {
  std::vector<int> touched(100, 0);
  ParallelFor(DefaultExecContext(), 0, 100, 10, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) ++touched[i];
  });
  EXPECT_EQ(std::accumulate(touched.begin(), touched.end(), 0), 100);
}

TEST(ParallelForTest, SmallRangeRunsInline) {
  ThreadPool pool(4);
  const ExecContext ctx = ExecContext::WithPool(&pool);
  std::vector<int> touched(3, 0);
  ParallelFor(ctx, 0, 3, 100, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) ++touched[i];
  });
  for (int t : touched) EXPECT_EQ(t, 1);
}

TEST(ParallelForTest, ZeroGrainIsTreatedAsOne) {
  ThreadPool pool(2);
  const ExecContext ctx = ExecContext::WithPool(&pool);
  std::atomic<int> total{0};
  ParallelFor(ctx, 0, 50, 0, [&](size_t lo, size_t hi) {
    total.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(total.load(), 50);
}

TEST(TaskGroupTest, WaitCoversOnlyOwnGroup) {
  ThreadPool pool(4);
  // A long-running task in another group must not delay Wait() on ours.
  TaskGroup slow;
  std::atomic<bool> slow_started{false};
  std::atomic<bool> slow_done{false};
  ASSERT_TRUE(pool.Submit(&slow, [&] {
    slow_started.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    slow_done.store(true);
  }).ok());
  // Ensure the slow task is *running* (not queued, where a helping waiter
  // could legitimately pick it up).
  while (!slow_started.load()) std::this_thread::yield();

  TaskGroup fast;
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pool.Submit(&fast, [&count] { count.fetch_add(1); }).ok());
  }
  pool.Wait(&fast);
  EXPECT_EQ(count.load(), 8);
  EXPECT_FALSE(slow_done.load());  // we did not wait for the other group
  pool.Wait(&slow);
  EXPECT_TRUE(slow_done.load());
}

TEST(TaskGroupTest, WaiterNeverRunsAnotherGroupsQueuedTask) {
  // A service worker holding a lock exclusively runs a parallel stage
  // while another request, which takes the same lock, sits in the queue.
  // A waiter that picked that request up would re-lock the mutex on its
  // own thread (std::system_error, or a self-deadlock).
  ThreadPool pool(2);
  const ExecContext ctx = ExecContext::WithPool(&pool);
  // Park both workers so queued tasks stay queued until a waiter runs them.
  std::atomic<bool> release{false};
  std::atomic<int> parked{0};
  TaskGroup blockers;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(pool.Submit(&blockers, [&] {
      parked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    }).ok());
  }
  while (parked.load() < 2) std::this_thread::yield();

  std::shared_mutex mu;
  TaskGroup other;
  std::atomic<bool> other_ran{false};
  ASSERT_TRUE(pool.Submit(&other, [&] {
    std::shared_lock lock(mu);
    other_ran.store(true);
  }).ok());

  std::atomic<int> covered{0};
  {
    std::unique_lock lock(mu);
    ParallelFor(ctx, 0, 64, 1, [&](size_t lo, size_t hi) {
      covered.fetch_add(static_cast<int>(hi - lo));
    });
    EXPECT_FALSE(other_ran.load());
  }
  EXPECT_EQ(covered.load(), 64);
  release.store(true);
  pool.Wait(&other);
  pool.Wait(&blockers);
  EXPECT_TRUE(other_ran.load());
}

TEST(TaskGroupTest, GroupIsReusableAfterWait) {
  ThreadPool pool(2);
  TaskGroup group;
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(pool.Submit(&group, [&count] { count.fetch_add(1); }).ok());
    }
    pool.Wait(&group);
    EXPECT_EQ(count.load(), (round + 1) * 10);
  }
}

TEST(ThreadPoolTest, SubmitDuringShutdownIsRejected) {
  std::atomic<bool> saw_rejection{false};
  std::atomic<int> noops{0};
  // Declared before the pool: the group outlives every task, which the
  // pool's destructor drains.
  TaskGroup group;
  {
    ThreadPool pool(2);
    ASSERT_TRUE(pool.Submit(&group, [&] {
      // Keep submitting no-ops until destruction flips the pool into
      // shutdown; then Submit must fail cleanly instead of crashing.
      for (;;) {
        Status s = pool.Submit(&group, [&noops] { noops.fetch_add(1); });
        if (!s.ok()) {
          EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
          saw_rejection.store(true);
          return;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(saw_rejection.load());
}

TEST(ParallelForTest, NestedFromInsideWorkerDoesNotDeadlock) {
  // The pre-task-group pool deadlocked here: the outer chunks blocked in
  // Wait() while the inner chunks sat unexecuted in the queue.
  ThreadPool pool(4);
  const ExecContext ctx = ExecContext::WithPool(&pool);
  std::atomic<int> total{0};
  ParallelFor(ctx, 0, 32, 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      ParallelFor(ctx, 0, 32, 1, [&](size_t ilo, size_t ihi) {
        total.fetch_add(static_cast<int>(ihi - ilo));
      });
    }
  });
  EXPECT_EQ(total.load(), 32 * 32);
}

TEST(ParallelForTest, DoublyNestedDoesNotDeadlock) {
  ThreadPool pool(3);
  const ExecContext ctx = ExecContext::WithPool(&pool);
  std::atomic<int> total{0};
  ParallelFor(ctx, 0, 8, 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      ParallelFor(ctx, 0, 8, 1, [&](size_t mlo, size_t mhi) {
        for (size_t m = mlo; m < mhi; ++m) {
          ParallelFor(ctx, 0, 8, 1, [&](size_t ilo, size_t ihi) {
            total.fetch_add(static_cast<int>(ihi - ilo));
          });
        }
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 8 * 8);
}

TEST(ParallelForTest, ConcurrentCallersAreIndependent) {
  ThreadPool pool(4);
  const ExecContext ctx = ExecContext::WithPool(&pool);
  constexpr int kCallers = 4;
  constexpr size_t kItems = 20000;
  std::vector<std::vector<int>> touched(kCallers,
                                        std::vector<int>(kItems, 0));
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&ctx, &touched, c] {
      for (int round = 0; round < 10; ++round) {
        ParallelFor(ctx, 0, kItems, 64, [&touched, c](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) ++touched[c][i];
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(touched[c][i], 10) << "caller " << c << " index " << i;
    }
  }
}

TEST(ParallelForTest, ConcurrentAndNestedCombined) {
  ThreadPool pool(4);
  const ExecContext ctx = ExecContext::WithPool(&pool);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back([&] {
      ParallelFor(ctx, 0, 16, 1, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          ParallelFor(ctx, 0, 16, 1, [&](size_t ilo, size_t ihi) {
            total.fetch_add(static_cast<int>(ihi - ilo));
          });
        }
      });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 3 * 16 * 16);
}

}  // namespace
}  // namespace gter

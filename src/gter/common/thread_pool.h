#ifndef GTER_COMMON_THREAD_POOL_H_
#define GTER_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "gter/common/exec_context.h"
#include "gter/common/status.h"

namespace gter {

class ThreadPool;

/// Completion handle for a batch of related tasks.
///
/// Each group carries its own pending-task counter, so waiting on one group
/// never blocks on tasks submitted by other callers. Groups are cheap
/// stack-allocated objects; the usual pattern is
///
///   TaskGroup group;
///   pool->Submit(&group, [] { ... });
///   pool->Submit(&group, [] { ... });
///   pool->Wait(&group);
///
/// A TaskGroup must outlive its last submitted task (Wait() before it goes
/// out of scope). Groups are not reusable across pools, but may be reused
/// for successive batches on the same pool after Wait() returns.
class TaskGroup {
 public:
  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

 private:
  friend class ThreadPool;
  // Guarded by the owning pool's mutex.
  size_t pending_ = 0;
};

/// Fixed-size worker pool with task-group completion semantics.
///
/// The paper's CliqueRank implementation leaned on Eigen's multi-threaded
/// GEMM on a 32-core Xeon; this pool is the substrate our masked products,
/// RSS walks, and ITER sweeps use for the same purpose.
///
/// Threading model (see DESIGN.md §"Threading model"):
///  * Every task belongs to a TaskGroup; `Wait(&group)` blocks until that
///    group's tasks — and only that group's tasks — have finished.
///  * A thread blocked in `Wait(&group)` runs that group's queued tasks
///    instead of sleeping while any are queued. This makes `Wait()` safe to
///    call from inside a worker task: nested `ParallelFor` cannot deadlock
///    because the waiter can always run its own queued chunks.
///  * A waiter never runs another group's task. The waiter may hold locks
///    (a service worker inside an exclusive section running a parallel
///    stage), and an unrelated queued task — another request taking the
///    same lock — would then re-enter that lock on the waiter's thread.
///  * Concurrent `ParallelFor` calls from different threads are independent:
///    each waits on its own group, never on the union of all in-flight work.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means `hardware_concurrency()`.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task into `group`. Tasks must not throw. Returns
  /// FailedPrecondition (and drops the task) if the pool is shutting down —
  /// submitting to a destructing pool is rejected, not fatal, so shutdown
  /// races degrade to lost work the caller can observe instead of a crash.
  Status Submit(TaskGroup* group, std::function<void()> task);

  /// Blocks until every task submitted to `group` has finished. Runs the
  /// group's queued tasks while waiting, so this is safe to call from a
  /// worker thread; tasks of other groups are left to the workers.
  void Wait(TaskGroup* group);

  size_t num_threads() const { return workers_.size(); }

  /// Process-wide default pool (lazily constructed, never destroyed before
  /// exit). Size = hardware concurrency.
  static ThreadPool* Default();

 private:
  struct Task {
    std::function<void()> fn;
    TaskGroup* group;
  };

  void WorkerLoop();
  /// The oldest queued task of `group`, or tasks_.end(). `mutex_` held.
  std::deque<Task>::iterator FindTask(TaskGroup* group);
  /// Dequeues and runs the task at `it`. `lock` must be held; it is
  /// released while the task runs and re-acquired before returning.
  void RunTask(std::deque<Task>::iterator it,
               std::unique_lock<std::mutex>* lock);

  std::vector<std::thread> workers_;
  std::deque<Task> tasks_;
  std::mutex mutex_;
  /// Signaled on: new task, group completion, shutdown. Workers and waiting
  /// helpers share it; completion events are rare enough that the shared
  /// condvar beats per-group condvars in allocation and fairness.
  std::condition_variable wakeup_;
  bool shutting_down_ = false;
};

/// Splits [begin, end) into contiguous chunks of at least `grain` items and
/// runs `fn(chunk_begin, chunk_end)` across `ctx.pool`. Blocks until
/// complete. Runs inline when there is no pool, the range is small or the
/// pool has one thread. Each chunk run as a pool task is recorded as a
/// `pool/task` span into `ctx.trace`, on the track of the thread that ran
/// it.
///
/// Safe to call concurrently from multiple threads sharing one pool, and
/// recursively from inside `fn` (the blocked caller drains queued chunks).
/// Chunk boundaries depend only on (begin, end, grain, num_threads), so any
/// `fn` whose chunks are independent yields thread-count-independent
/// results as long as each index's computation is self-contained.
void ParallelFor(const ExecContext& ctx, size_t begin, size_t end,
                 size_t grain, const std::function<void(size_t, size_t)>& fn);

}  // namespace gter

#endif  // GTER_COMMON_THREAD_POOL_H_

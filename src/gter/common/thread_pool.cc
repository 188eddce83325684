#include "gter/common/thread_pool.h"

#include <algorithm>
#include <string>
#include <utility>

#include "gter/common/logging.h"
#include "gter/common/trace.h"

namespace gter {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] {
      // Named track per worker in any trace recorded while this pool lives.
      SetCurrentThreadTraceName("pool-worker-" + std::to_string(i));
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  wakeup_.notify_all();
  for (auto& w : workers_) w.join();
}

Status ThreadPool::Submit(TaskGroup* group, std::function<void()> task) {
  GTER_CHECK(group != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      GTER_LOG(Warning) << "ThreadPool::Submit after shutdown; task dropped";
      return Status::FailedPrecondition(
          "ThreadPool is shutting down; task rejected");
    }
    tasks_.push_back({std::move(task), group});
    ++group->pending_;
  }
  wakeup_.notify_all();
  return Status::OK();
}

std::deque<ThreadPool::Task>::iterator ThreadPool::FindTask(
    TaskGroup* group) {
  return std::find_if(tasks_.begin(), tasks_.end(),
                      [group](const Task& t) { return t.group == group; });
}

void ThreadPool::RunTask(std::deque<Task>::iterator it,
                         std::unique_lock<std::mutex>* lock) {
  Task task = std::move(*it);
  tasks_.erase(it);
  lock->unlock();
  task.fn();
  lock->lock();
  if (--task.group->pending_ == 0) wakeup_.notify_all();
}

void ThreadPool::Wait(TaskGroup* group) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (group->pending_ > 0) {
    auto it = FindTask(group);
    if (it != tasks_.end()) {
      // Run our own queued work instead of sleeping, so a worker blocked
      // here (nested ParallelFor) cannot deadlock.
      RunTask(it, &lock);
    } else {
      // Our remaining tasks are running on other threads; sleep until a
      // completion or a new task of ours arrives. Other groups' queued
      // tasks must not wake us, or this would spin on them.
      wakeup_.wait(lock, [this, group] {
        return group->pending_ == 0 || FindTask(group) != tasks_.end();
      });
    }
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wakeup_.wait(lock, [this] { return shutting_down_ || !tasks_.empty(); });
    if (tasks_.empty()) {
      if (shutting_down_) return;
      continue;
    }
    RunTask(tasks_.begin(), &lock);
  }
}

ThreadPool* ThreadPool::Default() {
  static ThreadPool* pool = new ThreadPool();
  return pool;
}

void ParallelFor(const ExecContext& ctx, size_t begin, size_t end,
                 size_t grain, const std::function<void(size_t, size_t)>& fn) {
  GTER_CHECK(begin <= end);
  if (begin == end) return;
  if (grain == 0) grain = 1;
  ThreadPool* pool = ctx.pool;
  TraceRecorder* trace = ctx.trace;
  size_t span = end - begin;
  if (pool == nullptr || pool->num_threads() <= 1 || span <= grain) {
    fn(begin, end);
    return;
  }
  size_t num_chunks =
      std::min((span + grain - 1) / grain, pool->num_threads() * 4);
  size_t chunk = (span + num_chunks - 1) / num_chunks;
  TaskGroup group;
  for (size_t lo = begin; lo < end; lo += chunk) {
    size_t hi = std::min(lo + chunk, end);
    const auto task = [&fn, trace, lo, hi] {
      ScopedTraceSpan task_span(trace, "pool/task", "pool");
      fn(lo, hi);
    };
    if (!pool->Submit(&group, task).ok()) {
      // Pool is shutting down; finish the chunk inline so the range is
      // still fully covered.
      fn(lo, hi);
    }
  }
  pool->Wait(&group);
}

}  // namespace gter

#ifndef GTER_COMMON_EXEC_CONTEXT_H_
#define GTER_COMMON_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#include "gter/common/status.h"

namespace gter {

class MetricsRegistry;
class ThreadPool;
class TraceRecorder;

/// Cooperative cancellation flag with an optional monotonic deadline
/// (see DESIGN.md §4e).
///
/// One token is shared between a controller (a SIGINT handler, a serving
/// timeout, a test) and any number of pipeline threads. Stages poll it at
/// natural work boundaries — per ITER sweep, per RSS pair, per product row
/// block, per fusion round, per clustering restart — and unwind with
/// `Status::Cancelled` / `Status::DeadlineExceeded` when it has tripped.
/// Polling never changes what a stage computes: an uncancelled run is
/// byte-for-byte identical to one executed without a token.
///
/// All state is in std::atomics, so every method is thread-safe, and
/// `Cancel()` in particular is async-signal-safe (a single relaxed store —
/// callable from a SIGINT handler).
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Trips the token. Idempotent, async-signal-safe.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Arms a monotonic deadline; the token trips on the first poll at or
  /// after `deadline`.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           deadline.time_since_epoch())
                           .count(),
                       std::memory_order_relaxed);
  }

  /// Arms a deadline `seconds` from now.
  void SetTimeout(double seconds) {
    SetDeadline(std::chrono::steady_clock::now() +
                std::chrono::nanoseconds(
                    static_cast<int64_t>(seconds * 1e9)));
  }

  /// Test hook: trips the token on the (n+1)-th poll from now — the next
  /// `n` polls still pass. `CancelAfterPolls(0)` trips the very next poll.
  /// Drives the randomized cancel-point property tests.
  void CancelAfterPolls(int64_t n) {
    polls_left_.store(n, std::memory_order_relaxed);
    hook_armed_.store(true, std::memory_order_relaxed);
  }

  /// Polls the token: checks the flag, the poll-countdown hook, and the
  /// deadline (the clock is only read when a deadline is armed). Returns
  /// true once tripped.
  bool cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (hook_armed_.load(std::memory_order_relaxed) &&
        polls_left_.fetch_sub(1, std::memory_order_relaxed) <= 0) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    const int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
    if (deadline != kNoDeadline &&
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
                .count() >= deadline) {
      deadline_hit_.store(true, std::memory_order_relaxed);
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Polls and converts: OK while running, `DeadlineExceeded` when the
  /// armed deadline tripped the token, `Cancelled` otherwise.
  Status Check() const {
    if (!cancelled()) return Status::OK();
    if (deadline_hit_.load(std::memory_order_relaxed)) {
      return Status::DeadlineExceeded("deadline exceeded");
    }
    return Status::Cancelled("cancelled");
  }

  /// Rearms a tripped token for a fresh run (cancel-then-rerun tests, CLI
  /// reuse). Not safe concurrently with polls.
  void Reset() {
    cancelled_.store(false, std::memory_order_relaxed);
    deadline_hit_.store(false, std::memory_order_relaxed);
    hook_armed_.store(false, std::memory_order_relaxed);
    polls_left_.store(-1, std::memory_order_relaxed);
    deadline_ns_.store(kNoDeadline, std::memory_order_relaxed);
  }

 private:
  static constexpr int64_t kNoDeadline =
      std::numeric_limits<int64_t>::max();

  mutable std::atomic<bool> cancelled_{false};
  mutable std::atomic<bool> deadline_hit_{false};
  std::atomic<bool> hook_armed_{false};
  mutable std::atomic<int64_t> polls_left_{-1};
  std::atomic<int64_t> deadline_ns_{kNoDeadline};
};

/// True for the two codes a tripped CancelToken produces — the "stop was
/// requested" outcomes, as opposed to real failures.
inline bool IsCancellation(const Status& s) {
  return s.code() == StatusCode::kCancelled ||
         s.code() == StatusCode::kDeadlineExceeded;
}

/// Execution context for one pipeline run: worker pool, observability
/// sinks, and cancellation. The SIMD level is not part of it: every
/// dispatched kernel reads the process-global `ActiveSimdLevel()`.
///
/// Plain aggregate; cheap to copy. A null field means "none": a null pool
/// means sequential execution, a null `metrics` or `trace` records nothing
/// (one pointer test per instrumentation point), and a null cancel token
/// makes every poll a single pointer test (the zero-cost uncancellable
/// path). The context is the only way a sink reaches library code: there
/// is no installed or global registry or recorder to fall back on.
///
/// Stage entry points take `const ExecContext& = DefaultExecContext()`;
/// options structs carry only algorithm parameters.
struct ExecContext {
  ThreadPool* pool = nullptr;
  MetricsRegistry* metrics = nullptr;
  TraceRecorder* trace = nullptr;
  CancelToken* cancel = nullptr;

  /// Serving-side request id minted at admission (0 outside a server
  /// request). Rides the context so handlers, access-log lines, and
  /// slow-request trace dumps all agree on the id without re-plumbing.
  uint64_t request_id = 0;

  /// One cancellation poll: false (and zero work beyond a pointer test)
  /// when no token is attached.
  bool cancelled() const { return cancel != nullptr && cancel->cancelled(); }

  /// Poll-and-convert for `GTER_RETURN_IF_ERROR(ctx.CheckCancel())` at
  /// stage boundaries.
  Status CheckCancel() const {
    return cancel != nullptr ? cancel->Check() : Status::OK();
  }

  /// Context carrying only a worker pool — the common test/bench shape.
  static ExecContext WithPool(ThreadPool* pool) {
    ExecContext ctx;
    ctx.pool = pool;
    return ctx;
  }

  /// Context carrying only a cancel token.
  static ExecContext WithCancel(CancelToken* token) {
    ExecContext ctx;
    ctx.cancel = token;
    return ctx;
  }
};

/// The empty context: no pool, no sinks and no cancel token. Default
/// argument of every stage entry point.
const ExecContext& DefaultExecContext();

}  // namespace gter

#endif  // GTER_COMMON_EXEC_CONTEXT_H_

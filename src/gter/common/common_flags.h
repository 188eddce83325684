#ifndef GTER_COMMON_COMMON_FLAGS_H_
#define GTER_COMMON_COMMON_FLAGS_H_

#include <initializer_list>
#include <memory>
#include <string>

#include "gter/common/flags.h"
#include "gter/common/status.h"
#include "gter/common/thread_pool.h"

namespace gter {

/// The flag vocabulary every pipeline binary shares (gter_cli, the bench
/// suite, the examples):
///
///   --threads      worker threads (0 = all cores, 1 = serial)
///   --simd         compute-kernel level: scalar | avx512 | auto
///   --metrics_out  pipeline metrics JSON dump path
///   --trace_out    Chrome/Perfetto trace-event JSON dump path
///   --log_level    minimum log severity
///
/// Register with AddCommonStageFlags, then call ApplyCommonStageFlags after
/// FlagSet::Parse to validate and install --log_level and --simd process-
/// wide. Registered here once so help strings and semantics cannot drift
/// between binaries.

/// Registers only --log_level (for subcommands that take no stage flags).
void AddLogLevelFlag(FlagSet* flags);

/// Validates and installs a parsed --log_level; empty leaves the level
/// unchanged. Returns InvalidArgument on an unknown severity name.
Status ApplyLogLevelFlag(const FlagSet& flags);

/// Registers --threads/--simd/--metrics_out/--trace_out/--log_level.
void AddCommonStageFlags(FlagSet* flags);

/// Validates and installs --log_level and --simd from a parsed FlagSet.
/// --threads/--metrics_out/--trace_out are read by the caller (MakePool,
/// the observability scope) rather than installed globally.
Status ApplyCommonStageFlags(const FlagSet& flags);

/// InvalidArgument naming the first of `names` (int flags) below 1. Counts
/// such as --rounds and --steps are cast to size_t, where 0 fails a
/// GTER_CHECK and a negative value wraps to a near-endless loop bound.
Status RequirePositiveFlags(const FlagSet& flags,
                            std::initializer_list<const char*> names);

/// Pool for a --threads value, or nullptr for threads == 1 — the
/// sequential path, which every stage treats as the no-pool ExecContext.
/// threads <= 0 means all hardware cores.
std::unique_ptr<ThreadPool> MakeThreadPool(int64_t threads);

/// Equals-form consumer for binaries that forward the rest of argv to
/// another parser (bench_micro hands argv to google-benchmark). Recognizes
/// --log_level=/--simd= (applied immediately) and --metrics_out=/
/// --trace_out= (captured into the out-params). Returns true when `arg`
/// was one of ours; on a recognized flag with a bad value, returns true
/// and sets *error.
bool ConsumeCommonStageFlag(const char* arg, std::string* metrics_out,
                            std::string* trace_out, Status* error);

}  // namespace gter

#endif  // GTER_COMMON_COMMON_FLAGS_H_

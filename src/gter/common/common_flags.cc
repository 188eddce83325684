#include "gter/common/common_flags.h"

#include <cstring>
#include <string>

#include "gter/common/cpu.h"
#include "gter/common/logging.h"

namespace gter {

void AddLogLevelFlag(FlagSet* flags) {
  flags->AddString("log_level", "",
                   "minimum log severity (debug|info|warning|error)");
}

Status ApplyLogLevelFlag(const FlagSet& flags) {
  const std::string& text = flags.GetString("log_level");
  if (text.empty()) return Status::OK();
  LogLevel level;
  if (!ParseLogLevel(text, &level)) {
    return Status::InvalidArgument("unknown --log_level '" + text + "'");
  }
  SetLogLevel(level);
  return Status::OK();
}

void AddCommonStageFlags(FlagSet* flags) {
  flags->AddInt("threads", 1, "worker threads (0 = all cores, 1 = serial)");
  flags->AddString("simd", "auto",
                   "compute kernels: scalar | avx512 | auto (scalar = "
                   "the determinism reference path; requests above the host's "
                   "capability clamp down)");
  flags->AddString("metrics_out", "",
                   "output: pipeline metrics JSON (optional)");
  flags->AddString("trace_out", "",
                   "output: Chrome/Perfetto trace-event JSON (optional)");
  AddLogLevelFlag(flags);
}

Status ApplyCommonStageFlags(const FlagSet& flags) {
  GTER_RETURN_IF_ERROR(ApplyLogLevelFlag(flags));
  SimdLevel level;
  if (!ParseSimdLevel(flags.GetString("simd"), &level)) {
    return Status::InvalidArgument("unknown --simd '" +
                                   flags.GetString("simd") + "'");
  }
  SetSimdLevel(level);
  return Status::OK();
}

Status RequirePositiveFlags(const FlagSet& flags,
                            std::initializer_list<const char*> names) {
  for (const char* name : names) {
    const int64_t value = flags.GetInt(name);
    if (value < 1) {
      return Status::InvalidArgument("--" + std::string(name) +
                                     " must be at least 1, got " +
                                     std::to_string(value));
    }
  }
  return Status::OK();
}

std::unique_ptr<ThreadPool> MakeThreadPool(int64_t threads) {
  if (threads == 1) return nullptr;
  return std::make_unique<ThreadPool>(
      threads <= 0 ? 0 : static_cast<size_t>(threads));
}

bool ConsumeCommonStageFlag(const char* arg, std::string* metrics_out,
                            std::string* trace_out, Status* error) {
  if (std::strncmp(arg, "--metrics_out=", 14) == 0) {
    *metrics_out = arg + 14;
    return true;
  }
  if (std::strncmp(arg, "--trace_out=", 12) == 0) {
    *trace_out = arg + 12;
    return true;
  }
  if (std::strncmp(arg, "--log_level=", 12) == 0) {
    LogLevel level;
    if (!ParseLogLevel(arg + 12, &level)) {
      *error = Status::InvalidArgument(std::string("unknown --log_level '") +
                                       (arg + 12) + "'");
    } else {
      SetLogLevel(level);
    }
    return true;
  }
  if (std::strncmp(arg, "--simd=", 7) == 0) {
    SimdLevel level;
    if (!ParseSimdLevel(arg + 7, &level)) {
      *error = Status::InvalidArgument(std::string("unknown --simd '") +
                                       (arg + 7) + "'");
    } else {
      SetSimdLevel(level);
    }
    return true;
  }
  return false;
}

}  // namespace gter

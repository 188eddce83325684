#include "gter/common/exec_context.h"

#include "gter/common/metrics.h"
#include "gter/common/trace.h"

namespace gter {

MetricsRegistry* ExecContext::metrics_or_ambient() const {
  return metrics != nullptr ? metrics : MetricsRegistry::Current();
}

TraceRecorder* ExecContext::trace_or_ambient() const {
  return trace != nullptr ? trace : TraceRecorder::Current();
}

const ExecContext& DefaultExecContext() {
  static const ExecContext kAmbient;
  return kAmbient;
}

}  // namespace gter

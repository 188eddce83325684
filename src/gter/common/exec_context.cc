#include "gter/common/exec_context.h"

namespace gter {

const ExecContext& DefaultExecContext() {
  static const ExecContext kEmpty;
  return kEmpty;
}

}  // namespace gter

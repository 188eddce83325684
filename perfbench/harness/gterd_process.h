#ifndef PERFBENCH_HARNESS_GTERD_PROCESS_H_
#define PERFBENCH_HARNESS_GTERD_PROCESS_H_

// A gterd daemon run as a child process of the harness.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class GterdProcess {
 public:
  GterdProcess() = default;
  ~GterdProcess();
  GterdProcess(const GterdProcess&) = delete;
  GterdProcess& operator=(const GterdProcess&) = delete;

  /// Spawns `binary` with `args` (stderr to `log_path`) and waits up to
  /// `timeout_s` for both of its startup lines. Returns the seconds from
  /// spawn to the lines, or a negative value when the daemon failed to
  /// start (it is then stopped).
  double Start(const std::string& binary, const std::vector<std::string>& args,
               const std::string& log_path, double timeout_s);

  /// SIGTERM, then SIGKILL after `grace_s`; always reaps the child.
  /// Returns true when the daemon exited 0 on SIGTERM.
  bool Stop(double grace_s = 10.0);

  /// True while the child has not exited.
  bool Alive();

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  uint16_t metrics_port() const { return metrics_port_; }

 private:
  pid_t pid_ = -1;
  int exit_status_ = -1;
  uint16_t port_ = 0;
  uint16_t metrics_port_ = 0;
};

/// Kills every live daemon started by this process (the run's watchdog).
void KillAllGterd();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_GTERD_PROCESS_H_

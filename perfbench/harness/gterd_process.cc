#include "harness/gterd_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>

#include "harness/bench.h"

namespace perfbench {
namespace {

// Live daemon pids, for the watchdog. A fixed table of atomics keeps
// KillAllGterd async-signal-safe.
constexpr int kMaxChildren = 8;
std::atomic<pid_t> g_children[kMaxChildren];

void Track(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void Untrack(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    slot.compare_exchange_strong(expected, 0);
  }
}

// Parses the port after the last ':' of `line` up to the first non-digit.
uint16_t PortAfterColon(const std::string& line) {
  const size_t colon = line.rfind(':');
  if (colon == std::string::npos) return 0;
  return static_cast<uint16_t>(std::atoi(line.c_str() + colon + 1));
}

}  // namespace

void KillAllGterd() {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) kill(pid, SIGKILL);
  }
}

GterdProcess::~GterdProcess() { Stop(2.0); }

double GterdProcess::Start(const std::string& binary,
                           const std::vector<std::string>& args,
                           const std::string& log_path, double timeout_s) {
  int out[2];
  if (pipe2(out, O_CLOEXEC) != 0) return -1.0;
  std::vector<std::string> argv_store = {binary};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);

  const int64_t t0 = NowNs();
  const pid_t pid = fork();
  if (pid < 0) {
    close(out[0]);
    close(out[1]);
    if (log_fd >= 0) close(log_fd);
    return -1.0;
  }
  if (pid == 0) {
    // The daemon must not outlive the harness, whatever ends it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(out[1], STDOUT_FILENO);
    if (log_fd >= 0) dup2(log_fd, STDERR_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  pid_ = pid;
  Track(pid);
  close(out[1]);
  if (log_fd >= 0) close(log_fd);

  std::string text;
  char buf[4096];
  const int64_t deadline = t0 + static_cast<int64_t>(timeout_s * 1e9);
  double elapsed = -1.0;
  for (;;) {
    const size_t listen = text.find("gterd listening on");
    const size_t metrics = text.find("gterd metrics on");
    if (listen != std::string::npos && metrics != std::string::npos &&
        text.find('\n', metrics) != std::string::npos) {
      elapsed = static_cast<double>(NowNs() - t0) / 1e9;
      port_ = PortAfterColon(text.substr(listen, text.find('\n', listen) - listen));
      const std::string mline =
          text.substr(metrics, text.find('\n', metrics) - metrics);
      metrics_port_ = PortAfterColon(mline.substr(0, mline.rfind('/')));
      break;
    }
    const int64_t left = deadline - NowNs();
    if (left <= 0) break;
    pollfd p{out[0], POLLIN, 0};
    if (poll(&p, 1, static_cast<int>(std::min<int64_t>(left / 1'000'000 + 1, 1000))) < 0) {
      break;
    }
    if (p.revents == 0) continue;
    const ssize_t n = read(out[0], buf, sizeof(buf));
    if (n <= 0) break;  // the daemon exited before listening
    text.append(buf, static_cast<size_t>(n));
  }
  close(out[0]);
  if (elapsed < 0 || port_ == 0 || metrics_port_ == 0) {
    Stop(1.0);
    return -1.0;
  }
  return elapsed;
}

bool GterdProcess::Alive() {
  if (pid_ <= 0) return false;
  int status = 0;
  const pid_t r = waitpid(pid_, &status, WNOHANG);
  if (r == pid_) {
    exit_status_ = status;
    Untrack(pid_);
    pid_ = -1;
    return false;
  }
  return true;
}

bool GterdProcess::Stop(double grace_s) {
  if (pid_ <= 0) {
    return exit_status_ >= 0 && WIFEXITED(exit_status_) &&
           WEXITSTATUS(exit_status_) == 0;
  }
  const pid_t pid = pid_;
  kill(pid, SIGTERM);
  const int64_t deadline = NowNs() + static_cast<int64_t>(grace_s * 1e9);
  int status = 0;
  pid_t r = 0;
  while ((r = waitpid(pid, &status, WNOHANG)) == 0 && NowNs() < deadline) {
    usleep(5000);
  }
  bool clean = false;
  if (r == pid) {
    clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  } else {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
  }
  exit_status_ = status;
  Untrack(pid);
  pid_ = -1;
  return clean;
}

}  // namespace perfbench

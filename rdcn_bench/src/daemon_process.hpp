// rdcn_bench: one spawned rdcn_serve daemon, owned for its whole life.
//
// Every instance gets a fresh socket (and log) under .bench_run/ in the
// working directory, so no two runs share a socket and nothing is written
// outside the checkout.  The destructor always ends the process: SHUTDOWN
// first, SIGKILL if it has not exited within a few seconds, then waitpid
// and removal of the socket and log — on every path, a failed check or an
// exception included, so no daemon outlives the run that started it.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace rdcn::bench {

class DaemonProcess {
 public:
  /// Spawns the daemon built next to this benchmark with `flags` (plus
  /// --socket) and waits until it answers PING.  Throws on failure, after
  /// reaping whatever was started.
  explicit DaemonProcess(const std::vector<std::string>& flags);
  ~DaemonProcess();

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  const std::string& socket_path() const { return socket_; }

  /// Peak resident set size (VmHWM) of the daemon so far, in MiB.
  double peak_rss_mb() const;

  /// SHUTDOWN and reap.  Idempotent; the destructor calls it.
  void stop();

 private:
  pid_t pid_ = -1;
  std::string socket_;
  std::string log_;
};

/// VmHWM of /proc/<pid>/status in MiB ("self" for this process).
double vm_hwm_mb(const std::string& pid);

}  // namespace rdcn::bench

#include "daemon_process.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "serve/client.hpp"

namespace rdcn::bench {

namespace {

constexpr const char* kRunDir = ".bench_run";

/// waitpid without blocking for at most `timeout_ms`; true once reaped.
bool wait_exit(pid_t pid, int timeout_ms, int* status) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    const pid_t r = ::waitpid(pid, status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

double vm_hwm_mb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    std::getline(status, key);
  }
  throw std::runtime_error("no VmHWM in /proc/" + pid + "/status");
}

DaemonProcess::DaemonProcess(const std::vector<std::string>& flags) {
  static std::atomic<int> counter{0};
  ::mkdir(kRunDir, 0755);
  // Relative path: AF_UNIX paths are limited to ~100 bytes and the
  // checkout may sit arbitrarily deep; daemon and clients share this cwd.
  const std::string stem = std::string(kRunDir) + "/d" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(counter++);
  socket_ = stem + ".sock";
  log_ = stem + ".log";
  ::unlink(socket_.c_str());

  std::vector<std::string> args = {RDCN_BENCH_SERVE_BIN, "--socket=" + socket_};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const int log_fd =
      ::open(log_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::runtime_error("cannot create " + log_);
  pid_ = ::fork();
  if (pid_ == 0) {
    // Child: async-signal-safe calls only until exec.
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  if (pid_ < 0) throw std::runtime_error("fork failed");

  // Ready when it answers PING; give up if it dies or takes over 10 s.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (true) {
    try {
      serve::Client client;
      client.connect(socket_, 100);
      client.ping();
      return;
    } catch (const std::exception& e) {
      int status = 0;
      const bool exited = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (exited || std::chrono::steady_clock::now() >= deadline) {
        if (exited) pid_ = -1;
        stop();
        throw std::runtime_error("daemon did not come up on " + socket_ +
                                 " (log " + log_ + "): " + e.what());
      }
    }
  }
}

DaemonProcess::~DaemonProcess() { stop(); }

double DaemonProcess::peak_rss_mb() const {
  return vm_hwm_mb(std::to_string(pid_));
}

void DaemonProcess::stop() {
  if (pid_ < 0) return;
  try {
    serve::Client client;
    client.connect(socket_, 1000);
    client.shutdown_daemon(false);
  } catch (const std::exception&) {
    // Already gone or wedged: the kill below covers it.
  }
  int status = 0;
  if (!wait_exit(pid_, 10'000, &status)) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    status = -1;
  }
  pid_ = -1;
  ::unlink(socket_.c_str());
  if (status == 0)
    ::unlink(log_.c_str());
  else
    std::cerr << "rdcn_serve exited abnormally; log kept in " << log_ << "\n";
}

}  // namespace rdcn::bench

// rdcn_serve_client — command-line client for the rdcn_serve daemon.
//
// Submits scenario specs over the serving socket and writes the returned
// CSV, exactly as a direct `rdcn_sim --csv=...` run would produce it.
// With --daemon=BIN it is self-contained: it spawns the daemon itself,
// runs the specs, asks it to SHUTDOWN, and reaps the process — this is
// what the serve e2e smoke test drives.
//
//   # against an already-running daemon
//   rdcn_serve_client --socket=/tmp/rdcn.sock --csv=out.csv
//     --spec='workload=zipf:skew=1.2;requests=20000;trials=2'
//
//   # self-contained: spawn the daemon, run, shut it down
//   rdcn_serve_client --daemon=./rdcn_serve --socket=/tmp/rdcn.sock
//     --spec='...' --spec2='...same spec, params reordered...'
//
// Per submission it prints one line `run: status=... cached=... checkpoints=...`
// — so "cached=1" on a --spec2 resubmission is directly observable.
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <vector>

#include "common/param_map.hpp"
#include "serve/client.hpp"

namespace {

using namespace rdcn;

constexpr const char* kUsage =
    "rdcn_serve_client — submit scenario specs to a rdcn_serve daemon\n"
    "\n"
    "flags:\n"
    "  --socket=PATH   daemon socket to connect to (required)\n"
    "  --daemon=BIN    spawn BIN --socket=PATH first, SHUTDOWN + reap it\n"
    "                  after the runs (self-contained mode)\n"
    "  --spec=SPEC     scenario spec to run (ScenarioSpec one-line form)\n"
    "  --spec2=SPEC    second spec submitted after the first completes —\n"
    "                  an equivalent spec reports cached=1\n"
    "  --attach=ID     instead of submitting, ATTACH to run ID (queued,\n"
    "                  running, or recently finished — ids survive daemon\n"
    "                  restarts when the daemon journals) and collect it\n"
    "  --reset=SPEC    clear the quarantine streak for canonical SPEC\n"
    "                  ('all' clears every streak) and report the count\n"
    "  --csv=FILE      write the first run's CSV payload to FILE\n"
    "  --csv2=FILE     write the second run's CSV payload to FILE\n"
    "  --deadline-ms=N ask the daemon to abandon a run N ms after\n"
    "                  admission (DONE status=deadline_exceeded)\n"
    "  --retries=N     total submission attempts through REJECT\n"
    "                  backpressure and transient disconnects (default 5)\n"
    "  --metrics-out=FILE\n"
    "                  after the runs, scrape the daemon's METRICS endpoint\n"
    "                  (Prometheus text exposition) into FILE; '-' = stdout\n"
    "  --quiet         suppress CHECKPOINT progress echo\n"
    "  --help          this text\n";

/// Runs one spec to completion (with the client library's bounded
/// retry/backoff loop); returns false when the run didn't finish with
/// status ok.
bool run_spec(serve::Client& client, const std::string& spec,
              const std::string& csv_path, bool quiet,
              const serve::Client::RetryPolicy& policy,
              std::uint64_t deadline_ms) {
  const serve::Client::RunOutput out = client.run_scenario(
      spec, policy, deadline_ms, [quiet](const std::string& line) {
        // endl: progress lines are for live observation — they must not
        // sit in a block buffer when stdout is a file or pipe.
        if (!quiet) std::cout << line << std::endl;
      });
  std::cout << "run: status=" << out.status
            << " cached=" << (out.cached ? 1 : 0)
            << " checkpoints=" << out.checkpoints
            << " attempts=" << out.attempts << "\n";
  if (out.status != "ok") {
    if (!out.error.empty()) std::cerr << "error: " << out.error << "\n";
    return false;
  }
  if (!csv_path.empty()) {
    std::ofstream file(csv_path, std::ios::binary);
    file << out.csv;
    if (!file) {
      std::cerr << "error: cannot write " << csv_path << "\n";
      return false;
    }
    std::cout << "wrote " << csv_path << "\n";
  }
  return true;
}

/// ATTACHes to an existing run by id and collects it to completion.
bool attach_run(serve::Client& client, std::uint64_t id,
                const std::string& csv_path, bool quiet) {
  const serve::Client::AttachResult at = client.attach(id);
  if (!at.attached) {
    std::cerr << "error: ATTACH " << id << " refused: " << at.error << "\n";
    return false;
  }
  std::cout << "attached: id=" << id << " state=" << at.state
            << " last_seq=" << at.last_seq << "\n";
  const serve::Client::RunOutput out =
      client.collect(id, [quiet](const std::string& line) {
        if (!quiet) std::cout << line << std::endl;
      });
  std::cout << "run: status=" << out.status
            << " cached=" << (out.cached ? 1 : 0)
            << " checkpoints=" << out.checkpoints << " attempts=1\n";
  if (out.status != "ok") {
    if (!out.error.empty()) std::cerr << "error: " << out.error << "\n";
    return false;
  }
  if (!csv_path.empty()) {
    std::ofstream file(csv_path, std::ios::binary);
    file << out.csv;
    if (!file) {
      std::cerr << "error: cannot write " << csv_path << "\n";
      return false;
    }
    std::cout << "wrote " << csv_path << "\n";
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Every flag is read and checked before --daemon forks: a bad one exits
  // 2 with no daemon to reap.
  std::string socket_path, daemon_bin, spec, spec2, reset, csv, csv2,
      metrics_out;
  bool attach = false, quiet = false;
  std::uint64_t attach_id = 0, deadline_ms = 0;
  serve::Client::RetryPolicy policy;
  try {
    const ParamMap flags = ParamMap::from_args(argc, argv);
    if (flags.get("help", false) || !flags.contains("socket")) {
      std::cout << kUsage;
      return 0;
    }
    socket_path = flags.get<std::string>("socket");
    daemon_bin = flags.get<std::string>("daemon", "");
    spec = flags.get<std::string>("spec", "");
    spec2 = flags.get<std::string>("spec2", "");
    attach = flags.contains("attach");
    attach_id = flags.get<std::uint64_t>("attach", 0);
    reset = flags.get<std::string>("reset", "");
    csv = flags.get<std::string>("csv", "");
    csv2 = flags.get<std::string>("csv2", "");
    deadline_ms = flags.get("deadline-ms", deadline_ms);
    policy.max_attempts = flags.get("retries", policy.max_attempts);
    metrics_out = flags.get<std::string>("metrics-out", "");
    quiet = flags.get("quiet", false);
    flags.require_all_consumed("rdcn_serve_client");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  pid_t daemon_pid = -1;
  if (!daemon_bin.empty()) {
    const std::string socket_arg = "--socket=" + socket_path;
    daemon_pid = ::fork();
    if (daemon_pid < 0) {
      std::cerr << "error: fork failed: " << std::strerror(errno) << "\n";
      return 2;
    }
    if (daemon_pid == 0) {
      ::execl(daemon_bin.c_str(), daemon_bin.c_str(), socket_arg.c_str(),
              static_cast<char*>(nullptr));
      std::cerr << "error: cannot exec " << daemon_bin << ": "
                << std::strerror(errno) << "\n";
      ::_exit(127);
    }
  }

  int exit_code = 0;
  try {
    serve::Client client;
    client.connect(socket_path);  // retries while a spawned daemon binds
    client.ping();
    if (!reset.empty()) {
      const std::size_t cleared = reset == "all"
                                      ? client.reset_all()
                                      : client.reset_quarantine(reset);
      std::cout << "reset: cleared=" << cleared << "\n";
    }

    if (attach && !attach_run(client, attach_id, csv, quiet)) exit_code = 1;
    if (exit_code == 0 && !spec.empty() &&
        !run_spec(client, spec, csv, quiet, policy, deadline_ms))
      exit_code = 1;
    if (exit_code == 0 && !spec2.empty() &&
        !run_spec(client, spec2, csv2, quiet, policy, deadline_ms))
      exit_code = 1;

    if (!metrics_out.empty()) {
      const std::string text = client.metrics();
      if (metrics_out == "-") {
        std::cout << text;
      } else {
        std::ofstream file(metrics_out, std::ios::binary);
        file << text;
        if (!file) {
          std::cerr << "error: cannot write " << metrics_out << "\n";
          exit_code = 2;
        } else {
          std::cout << "wrote " << metrics_out << "\n";
        }
      }
    }

    if (daemon_pid > 0) client.shutdown_daemon();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    exit_code = 2;
  }

  if (daemon_pid > 0) {
    int status = 0;
    ::waitpid(daemon_pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::cerr << "error: daemon exited abnormally\n";
      if (exit_code == 0) exit_code = 2;
    }
  }
  return exit_code;
}

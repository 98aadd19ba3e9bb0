// rdcn_serve — the scenario-serving daemon.
//
// Listens on a local (AF_UNIX) socket and executes scenario specs
// submitted over a line protocol: clients send "RUN <spec>" and stream
// back checkpoint progress plus the run's CSV table; equivalent specs
// (same parameters in any order) are answered from an LRU results cache
// without re-running.  Runs can be cancelled mid-flight and submissions
// beyond the admission queue are rejected with a retry hint instead of
// queueing unboundedly.
//
//   rdcn_serve --socket=/tmp/rdcn.sock
//   rdcn_serve --socket=/tmp/rdcn.sock --executors=4 --cache=256
//
// then, from any client (rdcn_serve_client, or netcat for a quick poke):
//
//   printf 'RUN workload=zipf:skew=1.2;requests=20000;trials=2\n' |
//     nc -U /tmp/rdcn.sock
//
// The daemon exits when a client sends SHUTDOWN.  SIGTERM/SIGINT (and
// SHUTDOWN drain=1) trigger a graceful drain instead: admissions stop,
// in-flight runs get --drain-ms to finish, stragglers are cancelled
// cooperatively, caches and journal are flushed, and the process exits 0.
//
// With --journal=DIR the run lifecycle itself is durable: a daemon killed
// mid-run re-enqueues every incomplete run at the next start (results
// land in the disk cache), restores quarantine streaks, and keeps run ids
// stable — clients re-attach to their runs with ATTACH <id>.
#include <iostream>

#include "common/param_map.hpp"
#include "serve/daemon.hpp"

namespace {

using namespace rdcn;

constexpr const char* kUsage =
    "rdcn_serve — scenario-serving daemon\n"
    "\n"
    "flags:\n"
    "  --socket=PATH     AF_UNIX socket to listen on (required)\n"
    "  --queue=N         runs that may wait for an executor, in one FIFO\n"
    "                    queue; the next gets REJECT reason=queue_full\n"
    "                    with a retry hint (default 16)\n"
    "  --executors=N     concurrent scenario runs, at least 1 (default 2)\n"
    "  --cache=N         results-cache entries, 0 disables (default 64)\n"
    "  --disk-cache=DIR  persistent results store surviving restarts;\n"
    "                    corrupt entries are skipped at startup (default off)\n"
    "  --journal=DIR     write-ahead run journal: queued/running runs\n"
    "                    survive a crash (re-enqueued at restart), run ids\n"
    "                    stay stable for ATTACH, quarantine streaks\n"
    "                    persist (default off)\n"
    "  --drain-ms=N      graceful-drain budget for in-flight runs on\n"
    "                    SIGTERM/SIGINT or SHUTDOWN drain=1 (default 5000)\n"
    "  --threads=N       worker threads per run, 0 = all cores (default 0)\n"
    "  --retry-ms=N      REJECT retry hint until a run has finished and\n"
    "                    the hint follows the drain rate (default 200)\n"
    "  --quarantine=N    consecutive executor crashes before a spec is\n"
    "                    quarantined, 0 disables (default 3)\n"
    "  --quarantine-ttl-s=N\n"
    "                    forget a crash streak untouched for N seconds,\n"
    "                    0 = never (default 0); RESET clears streaks now\n"
    "  --progress-timeout-ms=N\n"
    "                    cancel a run whose checkpoints stop advancing for\n"
    "                    N ms (DONE status=stalled), 0 disables (default 0)\n"
    "  --faults=SPEC     arm fault-injection points (testing/incident\n"
    "                    repro; same syntax as RDCN_FAULTS — see\n"
    "                    common/fault.hpp)\n"
    "  --metrics-dump=FILE\n"
    "                    write the full metric registry + phase-trace tree\n"
    "                    as JSON to FILE periodically (atomic temp+rename;\n"
    "                    default off)\n"
    "  --metrics-dump-ms=N\n"
    "                    snapshot period for --metrics-dump (default 1000)\n"
    "  --help            this text\n"
    "\n"
    "protocol: PING | RUN <spec> [deadline_ms=<n>] | CANCEL <id> |\n"
    "          ATTACH <id> [from=<k>] |\n"
    "          RESET spec=<canonical> | RESET all=1 | STATS | METRICS |\n"
    "          SHUTDOWN [drain=<0|1>]\n"
    "see README.md ('Serving mode' and 'Observability') for the full\n"
    "cookbook.\n";

}  // namespace

int main(int argc, char** argv) {
  try {
    const ParamMap flags = ParamMap::from_args(argc, argv);
    // No --socket (including the bare no-argument smoke run) is a request
    // for the manual, not an error.
    if (flags.get("help", false) || !flags.contains("socket")) {
      std::cout << kUsage;
      return 0;
    }
    // ServeOptions holds every default; a flag only overrides one.
    serve::ServeOptions options;
    options.socket_path = flags.get<std::string>("socket");
    options.queue_limit = flags.get("queue", options.queue_limit);
    options.executors = flags.get("executors", options.executors);
    options.cache_entries = flags.get("cache", options.cache_entries);
    options.disk_cache_dir = flags.get("disk-cache", options.disk_cache_dir);
    options.journal_dir = flags.get("journal", options.journal_dir);
    options.drain_ms = flags.get("drain-ms", options.drain_ms);
    options.handle_signals = true;
    options.threads = flags.get("threads", options.threads);
    options.retry_hint_ms = flags.get("retry-ms", options.retry_hint_ms);
    options.quarantine_threshold =
        flags.get("quarantine", options.quarantine_threshold);
    options.quarantine_ttl_s =
        flags.get("quarantine-ttl-s", options.quarantine_ttl_s);
    options.progress_timeout_ms =
        flags.get("progress-timeout-ms", options.progress_timeout_ms);
    options.faults = flags.get("faults", options.faults);
    options.metrics_dump_path =
        flags.get("metrics-dump", options.metrics_dump_path);
    options.metrics_dump_ms =
        flags.get("metrics-dump-ms", options.metrics_dump_ms);
    flags.require_all_consumed("rdcn_serve");
    // Zero executors is ServeOptions' test hook (runs queue, never run).
    if (options.executors == 0)
      throw SpecError("--executors must be at least 1");

    serve::Daemon daemon(options);
    daemon.start();
    std::cout << "rdcn_serve listening on " << options.socket_path
              << " (executors=" << options.executors
              << " queue=" << options.queue_limit
              << " cache=" << options.cache_entries << ")" << std::endl;
    daemon.wait_for_shutdown_command();
    daemon.stop();
    std::cout << "rdcn_serve: shutdown complete\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

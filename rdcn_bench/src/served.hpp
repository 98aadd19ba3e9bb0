// rdcn_bench: helpers for driving a spawned daemon — closed client loops,
// PING round trips, and METRICS scrapes — plus the per-layer report every
// traced workload fills the same way.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "layers.hpp"
#include "serve/client.hpp"
#include "workloads.hpp"

namespace rdcn::bench {

/// A closed_loop duration for loops that `next` ends by itself.
inline constexpr double kNoDeadline = 3600;

/// One operation a client connection submits: `key` identifies the
/// expected output to the check, `text` is the spec string sent.
struct Op {
  std::size_t key = 0;
  std::string text;
};

struct LoopResult {
  std::vector<double> latency_ms;  ///< RUN sent to DONE received
  std::vector<double> submit_us;   ///< RUN sent to verdict (split only)
  std::vector<double> collect_us;  ///< verdict to DONE (split only)
  double wall_s = 0;
};

/// `connections` clients, each in a closed loop for `seconds`: the next
/// RUN goes out only after the previous one's DONE.  `next(conn, k)` gives
/// connection conn's k-th op (false ends that connection early);
/// `check(op, output)` returns "" or what was wrong, and must be
/// thread-safe.  Refusals, transport errors and failed checks count in
/// ctx; `split` also times submit and collect separately.
LoopResult closed_loop(
    RunContext& ctx, const std::string& socket, std::size_t connections,
    double seconds, bool split,
    const std::function<bool(std::size_t conn, std::size_t k, Op& op)>& next,
    const std::function<std::string(const Op& op,
                                    const serve::Client::RunOutput& out)>&
        check);

/// PING round trips on an otherwise idle daemon, in microseconds.
std::vector<double> ping_us(const std::string& socket, std::size_t n);

/// Counters from a METRICS scrape of the daemon.
struct Counters {
  double queue_wait_s = 0;  ///< rdcn_serve_queue_wait_seconds sum
  double queue_waits = 0;   ///< ... count
  double run_s = 0;         ///< rdcn_serve_run_seconds{status="ok"} sum
  double runs = 0;          ///< ... count
  double hits = 0;          ///< rdcn_serve_cache_hits_total
  double misses = 0;        ///< rdcn_serve_cache_misses_total
  double sim_requests = 0;  ///< rdcn_sim_requests_total
};
Counters scrape(const std::string& socket);
/// rdcn_sim_requests_total of this process.
double local_sim_requests();

/// What a traced run measured, in the shape every workload reports.
struct LayerSamples {
  /// Probes of the workload's own operation specs, each with the
  /// in-process run_scenario + write_csv time of the same spec.
  std::vector<LayerProbe> ops;
  std::vector<double> inproc_ms;
  /// Serial replay of the replay_1m algorithm set on this workload's
  /// fabric (the core.<alg>.b<b> metrics).
  LayerProbe core;
  std::size_t threads = 1;  ///< threads each operation runs with
  double op_p50_ms = 0;     ///< median latency of the timed operation
  double runs_per_op = 0;   ///< scenario runs each operation executed
  double requests_per_op = 0;  ///< requests simulated per operation
  double admit_us = 0;
  std::vector<double> ping_us, submit_us, collect_us;
  double served_cold_ms = 0;  ///< median served cold latency
  Counters before, after;     ///< daemon scrapes around the served runs
};

/// Fills runs_per_op and requests_per_op from the scrapes around a timed
/// loop of `ops` served operations.
void per_op_from_scrapes(LayerSamples& s, std::size_t ops);
void report_layers(Report& report, const LayerSamples& s);

/// The algorithm set of replay_1m, used for the core probes.
inline constexpr const char* kCoreAlgorithms =
    "r_bma,bma,so_bma,greedy,oblivious";
inline constexpr const char* kCoreCacheSizes = "4,64";

}  // namespace rdcn::bench

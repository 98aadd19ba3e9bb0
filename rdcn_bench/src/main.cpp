// rdcn_bench — the repository benchmark.
//
//   rdcn_bench --workload replay_1m|sweep_1k_cold|serve_cached
//              [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//              [--commit TEXT]
//
// Runs one workload for S seconds, checks every output, prints each metric
// by name with its unit, optionally writes the detailed result file
// (metrics with quartiles and sample counts plus the environment record),
// and ends standard output with the one-line JSON result.  With --trace 0
// the result line carries the end-to-end metrics, with --trace 1 the
// per-layer ones.  Exit code 0 only when every check passed; 2 on a usage
// error or a non-Release build, which refuses to report at all.
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.hpp"
#include "workloads.hpp"

namespace {

using namespace rdcn::bench;

const std::vector<std::string> kEndToEnd = {
    "setup_s", "peak_rss_mb", "latency_p50_ms", "latency_tail_ms",
    "throughput_per_s"};

int usage(const std::string& error) {
  std::cerr << "error: " << error
            << "\nusage: rdcn_bench --workload "
               "replay_1m|sweep_1k_cold|serve_cached [--seed N] "
               "[--seconds S] [--trace 0|1] [--out FILE] [--commit TEXT]\n";
  return 2;
}

}  // namespace

void rdcn::bench::RunContext::fail(const std::string& what) {
  if (failed++ < 5) std::cerr << "check failed: " << what << "\n";
}

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage("unexpected '" + key + "'");
    key = key.substr(2);
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      args[key.substr(0, eq)] = key.substr(eq + 1);
    } else if (i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      return usage("--" + key + " needs a value");
    }
  }
  for (const auto& [key, value] : args)
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "out" && key != "commit")
      return usage("unknown flag --" + key);

  const std::string build_type = RDCN_BENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool asserts = true;
#else
  const bool asserts = false;
#endif
  if (build_type != "Release" || asserts)
    return usage("refusing to report from a non-Release build (" +
                 build_type + ")");

  RunContext ctx;
  const std::string workload = args["workload"];
  try {
    if (args.count("seed")) ctx.seed = std::stoull(args["seed"]);
    if (args.count("seconds")) ctx.seconds = std::stod(args["seconds"]);
    if (args.count("trace")) ctx.trace = std::stoi(args["trace"]) != 0;
  } catch (const std::exception&) {
    return usage("--seed, --seconds and --trace take numbers");
  }
  if (ctx.seconds <= 0) return usage("--seconds must be positive");

  ctx.report.env("workload", workload);
  ctx.report.env("seed", std::to_string(ctx.seed));
  ctx.report.env("seconds", std::to_string(ctx.seconds));
  ctx.report.env("trace", ctx.trace ? "1" : "0");
  ctx.report.env("commit", args.count("commit") ? args["commit"] : "unknown");
  ctx.report.env("build_type", build_type);
  ctx.report.env("compiler", RDCN_BENCH_COMPILER);
  ctx.report.env("simd_isa", rdcn::simd::isa_name(rdcn::simd::active_isa()));
  ctx.report.env("simd_detected",
                 rdcn::simd::isa_name(rdcn::simd::detected_isa()));
  ctx.report.env("nproc", std::to_string(std::thread::hardware_concurrency()));

  try {
    if (workload == "replay_1m")
      run_replay_1m(ctx);
    else if (workload == "sweep_1k_cold")
      run_sweep_1k_cold(ctx);
    else if (workload == "serve_cached")
      run_serve_cached(ctx);
    else
      return usage("unknown workload '" + workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "error: " << workload << ": " << e.what() << "\n";
    return 1;
  }
  if (ctx.attempted == 0) {
    std::cerr << "error: no operation completed in " << ctx.seconds << " s\n";
    return 1;
  }

  const bool correct = ctx.failed == 0;
  if (!ctx.trace)
    ctx.report.value("failed_frac", "ratio",
                     static_cast<double>(ctx.failed) /
                         static_cast<double>(ctx.attempted),
                     "failed / attempted operations");
  if (args.count("out")) {
    std::ofstream out(args["out"]);
    out << ctx.report.detail_json(correct, ctx.attempted, ctx.failed);
    if (!out) std::cerr << "warning: cannot write " << args["out"] << "\n";
  }

  std::vector<std::string> names = kEndToEnd;
  if (ctx.trace) {
    names.clear();
    for (const auto& [name, metric] : ctx.report.metrics())
      names.push_back(name);
  }
  std::cout << ctx.report.listing();
  std::cout << ctx.report.result_line(correct, ctx.attempted, ctx.failed,
                                      names)
            << std::endl;
  return correct ? 0 : 1;
}

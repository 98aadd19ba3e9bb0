// Perf-regression gate for the request path.
//
// Replays fixed-seed Facebook-like and Microsoft-like traces through
// BMA / R-BMA / SO-BMA / greedy / oblivious at b ∈ {4, 16, 64} over BOTH
// execution paths — the scalar serve() loop and the batched serve_batch
// pipeline — and
//
//   1. asserts every cost ledger (scalar AND batched) is bit-identical to
//      the golden anchors captured from the pre-overhaul implementation
//      (the determinism contract: layout/scheduling optimizations must
//      never change a ledger),
//   2. measures single-thread requests/sec per combination and path (best
//      of `reps` runs, interleaved so machine drift hits both paths
//      equally) and emits machine-readable BENCH_request_path.json,
//      including the recorded pre-overhaul BMA baseline and the
//      batched-vs-scalar speedup per algorithm.
//
// Exit code: non-zero on any ledger mismatch; with --strict also when the
// BMA geomean speedup vs the recorded baseline falls below 1.5x or the
// batched-path geomean speedup over {bma, r_bma, so_bma} falls below the
// 1.3x target (perf checks default to report-only because CI machines
// share cores).
//
// Usage: perf_gate [--out=FILE] [--reps=N] [--strict]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "rdcn.hpp"
#include "scalar_replay.hpp"

namespace {

using namespace rdcn;
using rdcn::testing::run_simulation_scalar;

constexpr std::size_t kRacks = 100;
constexpr std::size_t kRequests = 200'000;
constexpr std::uint64_t kAlpha = 60;
constexpr std::uint64_t kSeed = 42;
const std::size_t kCacheSizes[] = {4, 16, 64};

// The batched-path speedup target is judged over the algorithms the
// paper's evaluation stresses (the two online contenders plus the offline
// comparator); greedy/oblivious ride along as context.
const char* const kCoreAlgorithms[] = {"bma", "r_bma", "so_bma"};

// Golden cost ledgers captured from the pre-overhaul implementation (seed
// commit) with the exact trace/instance parameters above.  Every entry is
// {routing_cost, reconfig_cost, edge_adds, edge_removals}.
struct Golden {
  const char* trace;
  const char* algorithm;
  std::size_t b;
  std::uint64_t routing_cost;
  std::uint64_t reconfig_cost;
  std::uint64_t edge_adds;
  std::uint64_t edge_removals;
};

constexpr Golden kGolden[] = {
    {"facebook_db", "bma", 4, 527334ull, 557400ull, 4727ull, 4563ull},
    {"facebook_db", "r_bma", 4, 467907ull, 604740ull, 5116ull, 4963ull},
    {"facebook_db", "so_bma", 4, 516230ull, 11940ull, 199ull, 0ull},
    {"facebook_db", "greedy", 4, 647421ull, 11940ull, 199ull, 0ull},
    {"facebook_db", "oblivious", 4, 761170ull, 0ull, 0ull, 0ull},
    {"facebook_db", "bma", 16, 424419ull, 264240ull, 2570ull, 1834ull},
    {"facebook_db", "r_bma", 16, 385508ull, 197280ull, 2013ull, 1275ull},
    {"facebook_db", "so_bma", 16, 388057ull, 47880ull, 798ull, 0ull},
    {"facebook_db", "greedy", 16, 517462ull, 47880ull, 798ull, 0ull},
    {"facebook_db", "oblivious", 16, 761170ull, 0ull, 0ull, 0ull},
    {"facebook_db", "bma", 64, 372821ull, 96240ull, 1604ull, 0ull},
    {"facebook_db", "r_bma", 64, 372821ull, 96240ull, 1604ull, 0ull},
    {"facebook_db", "so_bma", 64, 242711ull, 191460ull, 3191ull, 0ull},
    {"facebook_db", "greedy", 64, 328084ull, 191760ull, 3196ull, 0ull},
    {"facebook_db", "oblivious", 64, 761170ull, 0ull, 0ull, 0ull},
    {"microsoft", "bma", 4, 588408ull, 886320ull, 7421ull, 7351ull},
    {"microsoft", "r_bma", 4, 636482ull, 1178700ull, 9855ull, 9790ull},
    {"microsoft", "so_bma", 4, 565490ull, 11880ull, 198ull, 0ull},
    {"microsoft", "greedy", 4, 641626ull, 11940ull, 199ull, 0ull},
    {"microsoft", "oblivious", 4, 778026ull, 0ull, 0ull, 0ull},
    {"microsoft", "bma", 16, 434822ull, 474780ull, 4068ull, 3845ull},
    {"microsoft", "r_bma", 16, 485035ull, 842940ull, 7155ull, 6894ull},
    {"microsoft", "so_bma", 16, 412398ull, 46680ull, 778ull, 0ull},
    {"microsoft", "greedy", 16, 495069ull, 47340ull, 789ull, 0ull},
    {"microsoft", "oblivious", 16, 778026ull, 0ull, 0ull, 0ull},
    {"microsoft", "bma", 64, 310802ull, 133800ull, 1544ull, 686ull},
    {"microsoft", "r_bma", 64, 319109ull, 249360ull, 2507ull, 1649ull},
    {"microsoft", "so_bma", 64, 244624ull, 168060ull, 2801ull, 0ull},
    {"microsoft", "greedy", 64, 273810ull, 176940ull, 2949ull, 0ull},
    {"microsoft", "oblivious", 64, 778026ull, 0ull, 0ull, 0ull},
};

// Pre-overhaul BMA single-thread throughput on the Facebook-like trace
// (requests/sec, best of 3, recorded at the seed commit on the reference
// machine).  The 1.5x acceptance target is measured against these.
struct BaselineRps {
  std::size_t b;
  double rps;
};
constexpr BaselineRps kBmaFacebookBaseline[] = {
    {4, 9209421.0},
    {16, 5368510.0},
    {64, 4080064.0},
};

struct Measurement {
  std::string trace;
  std::string algorithm;
  std::size_t b = 0;
  double scalar_rps = 0.0;
  double batch_rps = 0.0;
  /// Batched pipeline with kernel dispatch pinned to the scalar reference
  /// (RDCN_FORCE_SCALAR_KERNELS semantics): the denominator of the
  /// SIMD-vs-scalar-kernel speedup.
  double batch_scalar_kernel_rps = 0.0;
  sim::Checkpoint final;

  double batch_speedup() const { return batch_rps / scalar_rps; }
  double kernel_speedup() const {
    return batch_rps / batch_scalar_kernel_rps;
  }
};

const Golden* find_golden(const std::string& trace, const std::string& algo,
                          std::size_t b) {
  for (const Golden& g : kGolden) {
    if (trace == g.trace && algo == g.algorithm && b == g.b) return &g;
  }
  return nullptr;
}

bool check_ledger(const Measurement& m, const sim::Checkpoint& final,
                  const char* path) {
  const Golden* g = find_golden(m.trace, m.algorithm, m.b);
  if (g == nullptr) {
    std::printf("LEDGER-CHECK %s/%s/b=%zu: no golden anchor\n",
                m.trace.c_str(), m.algorithm.c_str(), m.b);
    return false;
  }
  const bool ok = final.routing_cost == g->routing_cost &&
                  final.reconfig_cost == g->reconfig_cost &&
                  final.edge_adds == g->edge_adds &&
                  final.edge_removals == g->edge_removals;
  if (!ok) {
    std::printf(
        "LEDGER-CHECK %s/%s/b=%zu [%s]: MISMATCH got "
        "{routing=%llu reconfig=%llu adds=%llu removals=%llu} want "
        "{routing=%llu reconfig=%llu adds=%llu removals=%llu}\n",
        m.trace.c_str(), m.algorithm.c_str(), m.b, path,
        (unsigned long long)final.routing_cost,
        (unsigned long long)final.reconfig_cost,
        (unsigned long long)final.edge_adds,
        (unsigned long long)final.edge_removals,
        (unsigned long long)g->routing_cost,
        (unsigned long long)g->reconfig_cost,
        (unsigned long long)g->edge_adds,
        (unsigned long long)g->edge_removals);
  }
  return ok;
}

/// Geometric mean of a per-cell ratio over every (trace, b) cell of
/// `algorithm`.
template <typename Ratio>
double algorithm_geomean(const std::vector<Measurement>& results,
                         const std::string& algorithm, const Ratio& ratio) {
  double product = 1.0;
  std::size_t count = 0;
  for (const Measurement& m : results) {
    if (m.algorithm == algorithm) {
      product *= ratio(m);
      ++count;
    }
  }
  return count == 0 ? 0.0
                    : std::pow(product, 1.0 / static_cast<double>(count));
}

double algorithm_batch_geomean(const std::vector<Measurement>& results,
                               const std::string& algorithm) {
  return algorithm_geomean(results, algorithm, [](const Measurement& m) {
    return m.batch_speedup();
  });
}

double algorithm_kernel_geomean(const std::vector<Measurement>& results,
                                const std::string& algorithm) {
  return algorithm_geomean(results, algorithm, [](const Measurement& m) {
    return m.kernel_speedup();
  });
}

/// Interleaved best-of-N micro-measurement of the argmin kernel at row
/// length b: dispatched (SIMD) vs the scalar reference, same fuzzed row
/// pool.  Ratio-based, so the shared-machine load waves that make absolute
/// req/s unreliable cancel out.
volatile std::uint64_t g_kernel_sink = 0;

double measure_argmin_speedup(std::size_t b, int reps) {
  constexpr std::size_t kRows = 64;
  Xoshiro256 rng(1234 + b);
  std::vector<std::vector<std::uint64_t>> usage(kRows), age(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    usage[r].resize(b);
    age[r].resize(b);
    for (std::size_t i = 0; i < b; ++i) {
      usage[r][i] = rng.next_below(4);  // usage-counter shape: heavy ties
      age[r][i] = 1 + rng.next_below(1u << 20);
    }
  }
  // Equalize sample duration across b (~rows*iters*b element visits).
  const std::size_t iters =
      std::max<std::size_t>(1, 2'000'000 / (kRows * b));
  const auto sample = [&](bool use_simd) {
    std::uint64_t sink = 0;
    Stopwatch watch;
    for (std::size_t it = 0; it < iters; ++it) {
      for (std::size_t r = 0; r < kRows; ++r) {
        sink += use_simd
                    ? simd::argmin_u64_pair(usage[r].data(), age[r].data(), b)
                    : simd::scalar::argmin_u64_pair(usage[r].data(),
                                                    age[r].data(), b);
      }
    }
    g_kernel_sink = g_kernel_sink + sink;  // volatile += is deprecated
    return watch.seconds();
  };
  (void)sample(true);  // warm-up both paths
  (void)sample(false);
  double best_simd = 1e100, best_scalar = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    best_scalar = std::min(best_scalar, sample(false));
    best_simd = std::min(best_simd, sample(true));
  }
  return best_scalar / best_simd;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_request_path.json";
  int reps = 5;
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
    } else if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else {
      std::fprintf(stderr, "usage: perf_gate [--out=FILE] [--reps=N] [--strict]\n");
      return 2;
    }
  }
  if (reps < 1) reps = 1;

  // The kernel layer's dispatch state: perf_gate drives both modes itself
  // (SIMD and forced-scalar) regardless of the ambient environment, and
  // restores the ambient mode before exiting.
  const bool ambient_force_scalar = simd::force_scalar();
  std::printf("SIMD kernels: detected=%s active=%s%s\n",
              simd::isa_name(simd::detected_isa()),
              simd::isa_name(simd::active_isa()),
              ambient_force_scalar ? " (RDCN_FORCE_SCALAR_KERNELS set)" : "");

  const net::Topology topo = net::make_fat_tree(kRacks);
  const trace::Trace fb = trace::materialize(*trace::stream_facebook_like(
      trace::FacebookCluster::kDatabase, kRacks, kRequests, Xoshiro256(2023)));
  const trace::Trace ms = trace::materialize(*trace::stream_microsoft_like(
      kRacks, kRequests, {}, Xoshiro256(2024)));

  const char* algorithms[] = {"bma", "r_bma", "so_bma", "greedy",
                              "oblivious"};
  std::vector<Measurement> results;
  bool ledgers_ok = true;

  for (const trace::Trace* t : {&fb, &ms}) {
    const std::string trace_name = t == &fb ? "facebook_db" : "microsoft";
    for (const std::size_t b : kCacheSizes) {
      core::Instance inst;
      inst.distances = &topo.distances;
      inst.b = b;
      inst.alpha = kAlpha;
      for (const char* algo : algorithms) {
        // Matchers are built through the scenario registry (default
        // parameters): the 30 golden anchors double as proof that the
        // registry path is behaviour-identical to direct construction.
        auto matcher = scenario::make_algorithm(algo, inst, t, kSeed);
        Measurement m;
        m.trace = trace_name;
        m.algorithm = algo;
        m.b = b;
        // Interleave the three timed variants within each rep so slow
        // machine-load waves (the usual noise on shared CI boxes) bias no
        // side; all reported numbers are ratios of best-of-N.
        double best_scalar = 1e100, best_batch = 1e100;
        double best_batch_scalar_kernels = 1e100;
        sim::Checkpoint scalar_final, batch_final;
        sim::Checkpoint batch_scalar_kernels_final;
        sim::Checkpoint scalar_scalar_kernels_final;
        for (int rep = 0; rep < reps; ++rep) {
          simd::set_force_scalar(false);
          matcher->reset();
          const sim::RunResult s =
              run_simulation_scalar(*matcher, *t, {t->size()});
          if (s.final().wall_seconds < best_scalar)
            best_scalar = s.final().wall_seconds;
          scalar_final = s.final();
          matcher->reset();
          const sim::RunResult r = sim::run_to_completion(*matcher, *t);
          if (r.final().wall_seconds < best_batch)
            best_batch = r.final().wall_seconds;
          batch_final = r.final();
          // Same batched pipeline with kernels pinned to the scalar
          // reference — the SIMD-vs-scalar-kernel speedup denominator.
          simd::set_force_scalar(true);
          matcher->reset();
          const sim::RunResult k = sim::run_to_completion(*matcher, *t);
          if (k.final().wall_seconds < best_batch_scalar_kernels)
            best_batch_scalar_kernels = k.final().wall_seconds;
          batch_scalar_kernels_final = k.final();
          if (rep == 0) {
            // Ledger-only: the scalar serve() path under forced-scalar
            // kernels (the 4th path × dispatch combination).
            matcher->reset();
            const sim::RunResult sk =
                run_simulation_scalar(*matcher, *t, {t->size()});
            scalar_scalar_kernels_final = sk.final();
          }
          simd::set_force_scalar(false);
        }
        m.scalar_rps = static_cast<double>(kRequests) / best_scalar;
        m.batch_rps = static_cast<double>(kRequests) / best_batch;
        m.batch_scalar_kernel_rps =
            static_cast<double>(kRequests) / best_batch_scalar_kernels;
        m.final = batch_final;
        // Every execution path × dispatch mode must pin the same golden
        // ledger: kernel dispatch is a pure layout/scheduling concern.
        ledgers_ok = check_ledger(m, scalar_final, "scalar") && ledgers_ok;
        ledgers_ok = check_ledger(m, batch_final, "batched") && ledgers_ok;
        ledgers_ok = check_ledger(m, batch_scalar_kernels_final,
                                  "batched+scalar-kernels") && ledgers_ok;
        ledgers_ok = check_ledger(m, scalar_scalar_kernels_final,
                                  "scalar+scalar-kernels") && ledgers_ok;
        results.push_back(m);
        std::printf(
            "%-12s %-10s b=%-3zu scalar %10.0f req/s   batched %10.0f "
            "req/s   (%.2fx batch, %.2fx kernels)\n",
            trace_name.c_str(), algo, b, m.scalar_rps, m.batch_rps,
            m.batch_speedup(), m.kernel_speedup());
      }
    }
  }

  // BMA speedup vs the recorded pre-overhaul baseline (Facebook trace,
  // batched pipeline — the production replay path).
  double baseline_geomean = 1.0;
  std::vector<std::pair<std::size_t, double>> speedups;
  for (const BaselineRps& base : kBmaFacebookBaseline) {
    for (const Measurement& m : results) {
      if (m.trace == "facebook_db" && m.algorithm == "bma" && m.b == base.b) {
        const double s = m.batch_rps / base.rps;
        speedups.emplace_back(base.b, s);
        baseline_geomean *= s;
      }
    }
  }
  baseline_geomean =
      std::pow(baseline_geomean, 1.0 / static_cast<double>(speedups.size()));
  for (const auto& [b, s] : speedups) {
    std::printf("PERF bma facebook_db b=%zu speedup vs baseline: %.2fx\n", b,
                s);
  }
  std::printf("PERF bma facebook_db geomean speedup: %.2fx (target 1.50x): %s\n",
              baseline_geomean, baseline_geomean >= 1.5 ? "PASS" : "FAIL");

  // Batched-vs-scalar speedup per algorithm, and the gated geomean over
  // the core trio.
  double core_geomean = 1.0;
  std::vector<std::pair<std::string, double>> batch_geomeans;
  for (const char* algo : algorithms) {
    batch_geomeans.emplace_back(algo, algorithm_batch_geomean(results, algo));
  }
  for (const auto& [algo, g] : batch_geomeans) {
    std::printf("PERF batched-vs-scalar %-10s geomean: %.2fx\n", algo.c_str(),
                g);
  }
  for (const char* algo : kCoreAlgorithms) {
    core_geomean *= algorithm_batch_geomean(results, algo);
  }
  core_geomean =
      std::pow(core_geomean, 1.0 / static_cast<double>(
                                       std::size(kCoreAlgorithms)));
  std::printf(
      "PERF batched-vs-scalar core geomean (bma,r_bma,so_bma): %.2fx "
      "(target 1.30x): %s\n",
      core_geomean, core_geomean >= 1.3 ? "PASS" : "FAIL");

  // SIMD-vs-scalar-kernel speedup per algorithm (batched pipeline, both
  // sides best-of-N interleaved) — the dividend the hot-kernel layer buys
  // end to end.
  std::vector<std::pair<std::string, double>> kernel_geomeans;
  for (const char* algo : algorithms) {
    kernel_geomeans.emplace_back(algo,
                                 algorithm_kernel_geomean(results, algo));
  }
  for (const auto& [algo, g] : kernel_geomeans) {
    std::printf("PERF kernel-vs-scalar-kernel %-10s geomean: %.2fx\n",
                algo.c_str(), g);
  }

  // Isolated argmin kernel speedup (the BMA eviction-scan primitive) at
  // the microbench row lengths; the b=64 point is the --strict gate.
  const std::size_t kKernelRowLengths[] = {4, 16, 64, 256};
  std::vector<std::pair<std::size_t, double>> argmin_speedups;
  for (const std::size_t b : kKernelRowLengths) {
    argmin_speedups.emplace_back(b, measure_argmin_speedup(b, reps));
  }
  double argmin_speedup_b64 = 0.0;
  for (const auto& [b, s] : argmin_speedups) {
    if (b == 64) argmin_speedup_b64 = s;
    std::printf("PERF kernel argmin b=%-3zu SIMD-vs-scalar: %.2fx%s\n", b, s,
                b == 64 ? (s >= 1.5 ? " (target 1.50x): PASS"
                                    : " (target 1.50x): FAIL")
                        : "");
  }
  std::printf("LEDGER-CHECK all 30 anchors (scalar+batched paths, SIMD and "
              "forced-scalar kernels): %s\n",
              ledgers_ok ? "PASS" : "FAIL");

  // Per-phase time profile of one traced scenario run (BMA on the
  // Facebook-like trace at b=64, the flagship combination): the obs span
  // tree over workload generation, trial execution, and checkpoint
  // drains.  Traced separately from the timed measurements above so span
  // bookkeeping can never contaminate a req/s number.
  obs::reset_traces();
  obs::set_tracing(true);
  {
    obs::ObsSpan root("perf_gate.profile_run");
    (void)scenario::run_scenario(scenario::ScenarioSpec::parse(
        "workload=facebook_db;algorithms=bma;b=64;racks=100;"
        "requests=200000;trials=1;checkpoints=8;seed=42;threads=1"));
  }
  obs::set_tracing(false);
  const std::vector<obs::PhaseTotal> profile = obs::collect_phases();
  for (const obs::PhaseTotal& p : profile) {
    std::printf("PROFILE %-40s %10.6f s  x%llu\n", p.path.c_str(),
                static_cast<double>(p.total_ns) * 1e-9,
                (unsigned long long)p.count);
  }

  // Machine-readable output (schema documented in bench/README.md).
  std::ofstream json(out_path);
  json << "{\n  \"bench\": \"request_path\",\n";
  json << "  \"config\": {\"racks\": " << kRacks
       << ", \"requests\": " << kRequests << ", \"alpha\": " << kAlpha
       << ", \"seed\": " << kSeed << ", \"reps\": " << reps
       << ", \"threads\": 1, \"chunk_size\": " << sim::kServeChunk << "},\n";
  json << "  \"simd\": {\"detected\": \""
       << simd::isa_name(simd::detected_isa()) << "\", \"forced_scalar_env\": "
       << (ambient_force_scalar ? "true" : "false") << "},\n";
  json << "  \"baseline\": {\"description\": \"pre-overhaul BMA req/s, "
          "facebook_db trace, seed commit\", \"bma_facebook_db\": {";
  for (std::size_t i = 0; i < std::size(kBmaFacebookBaseline); ++i) {
    json << (i != 0 ? ", " : "") << "\"" << kBmaFacebookBaseline[i].b
         << "\": " << kBmaFacebookBaseline[i].rps;
  }
  json << "}},\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    char buf[768];
    std::snprintf(buf, sizeof buf,
                  "    {\"trace\": \"%s\", \"algorithm\": \"%s\", \"b\": %zu, "
                  "\"requests_per_sec\": %.0f, "
                  "\"scalar_requests_per_sec\": %.0f, "
                  "\"batch_speedup\": %.3f, \"kernel_speedup\": %.3f, "
                  "\"routing_cost\": %llu, "
                  "\"reconfig_cost\": %llu, \"total_cost\": %llu}%s\n",
                  m.trace.c_str(), m.algorithm.c_str(), m.b, m.batch_rps,
                  m.scalar_rps, m.batch_speedup(), m.kernel_speedup(),
                  (unsigned long long)m.final.routing_cost,
                  (unsigned long long)m.final.reconfig_cost,
                  (unsigned long long)m.final.total_cost,
                  i + 1 < results.size() ? "," : "");
    json << buf;
  }
  json << "  ],\n  \"bma_speedup_vs_baseline\": {";
  for (std::size_t i = 0; i < speedups.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s\"%zu\": %.3f", i != 0 ? ", " : "",
                  speedups[i].first, speedups[i].second);
    json << buf;
  }
  {
    char buf[64];
    std::snprintf(buf, sizeof buf, ", \"geomean\": %.3f", baseline_geomean);
    json << buf;
  }
  json << "},\n  \"batch_speedup_vs_scalar\": {";
  for (std::size_t i = 0; i < batch_geomeans.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.3f", i != 0 ? ", " : "",
                  batch_geomeans[i].first.c_str(), batch_geomeans[i].second);
    json << buf;
  }
  {
    char buf[96];
    std::snprintf(buf, sizeof buf, ", \"geomean_core\": %.3f", core_geomean);
    json << buf;
  }
  json << "},\n  \"kernel_speedup_vs_scalar_kernels\": {";
  for (std::size_t i = 0; i < kernel_geomeans.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.3f", i != 0 ? ", " : "",
                  kernel_geomeans[i].first.c_str(),
                  kernel_geomeans[i].second);
    json << buf;
  }
  json << "},\n  \"kernel_argmin_speedup\": {";
  for (std::size_t i = 0; i < argmin_speedups.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s\"%zu\": %.3f", i != 0 ? ", " : "",
                  argmin_speedups[i].first, argmin_speedups[i].second);
    json << buf;
  }
  json << "},\n";
  json << "  \"phase_profile\": {\"scenario\": "
          "\"facebook_db/bma/b=64\", \"phases\": [\n";
  for (std::size_t i = 0; i < profile.size(); ++i) {
    const obs::PhaseTotal& p = profile[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "    {\"path\": \"%s\", \"seconds\": %.6f, "
                  "\"calls\": %llu}%s\n",
                  p.path.c_str(),
                  static_cast<double>(p.total_ns) * 1e-9,
                  (unsigned long long)p.count,
                  i + 1 < profile.size() ? "," : "");
    json << buf;
  }
  json << "  ]},\n";
  json << "  \"ledger_check\": \"" << (ledgers_ok ? "pass" : "fail")
       << "\"\n}\n";
  json.close();
  std::printf("wrote %s\n", out_path.c_str());

  simd::set_force_scalar(ambient_force_scalar);

  if (!ledgers_ok) return 1;
  if (strict && (baseline_geomean < 1.5 || core_geomean < 1.3)) return 1;
  // The 1.5x argmin gate is calibrated for the AVX-512 kernel (the AVX2
  // select loop is port-limited to ~1.3x on the reference hardware, and a
  // scalar-only machine sits at 1.0 by construction) — apply it only where
  // that kernel runs.
  if (strict && simd::detected_isa() == simd::Isa::kAvx512 &&
      argmin_speedup_b64 < 1.5) {
    return 1;
  }
  return 0;
}

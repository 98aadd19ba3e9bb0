// replay_1m: the paper's Fig. 1 cell at 10^6 requests, run in-process
// through scenario::run_scenario + sim::write_csv, over and over.
#include "daemon_process.hpp"
#include "goldens.hpp"
#include "served.hpp"

namespace rdcn::bench {

namespace {

std::string replay_spec(std::uint64_t seed) {
  return std::string("topology=fat_tree;workload=facebook_db;algorithms=") +
         kCoreAlgorithms + ";b=" + kCoreCacheSizes +
         ";racks=100;requests=1000000;alpha=60;trials=5;threads=4;seed=" +
         std::to_string(seed);
}

/// (algorithm, b, trial) tasks one cell runs.
double task_count(const scenario::ScenarioSpec& spec) {
  double tasks = 0;
  for (const Spec& algorithm : spec.resolved().algorithms) {
    const double trials =
        sim::is_randomized(algorithm.name) ? static_cast<double>(spec.trials) : 1;
    const bool b_independent =
        scenario::AlgorithmRegistry::instance().at(algorithm.name).b_independent;
    tasks += trials * (b_independent ? 1.0
                                     : static_cast<double>(
                                           spec.resolved().cache_sizes.size()));
  }
  return tasks;
}

/// Checks a cell against the reference cell and, for the default seed,
/// against the committed goldens.
void check_cell(RunContext& ctx, const Cell& cell, const Cell& reference) {
  ++ctx.attempted;
  if (cell.csv != reference.csv ||
      !same_ledgers(ledgers(cell.runs), ledgers(reference.runs)))
    ctx.fail("replay cell differs from the first cell");
}

void check_oracles(RunContext& ctx, const LayerProbe& probe,
                   const Cell& reference) {
  const std::vector<Ledger> expected = ledgers(reference.runs);
  ++ctx.attempted;
  if (!same_ledgers(probe.serial, expected))
    ctx.fail("run_scenario ledgers differ from the single-thread replay");
  if (!same_ledgers(probe.experiment, expected))
    ctx.fail("run_scenario ledgers differ from run_experiment");
  if (ctx.seed == kDefaultSeed) {
    ++ctx.attempted;
    if (!same_ledgers(expected, replay_goldens())) {
      std::string observed;
      for (const Ledger& l : expected)
        observed += "\n  {\"" + l.label + "\", " + std::to_string(l.routing) +
                    ", " + std::to_string(l.reconfig) + ", " +
                    std::to_string(l.total) + "},";
      ctx.fail("replay_1m ledgers differ from the committed goldens; "
               "observed:" + observed);
    }
  }
}

}  // namespace

void run_replay_1m(RunContext& ctx) {
  const std::string text = replay_spec(ctx.seed);
  const scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse(text);
  const double algorithm_requests =
      task_count(spec) * static_cast<double>(spec.requests);

  // Set-up: process warm-up plus one untimed cell, kSetupReps times.
  std::vector<double> setup_s;
  Cell reference;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    Cell cell = run_cell(spec);
    setup_s.push_back(seconds_since(start));
    if (rep == 0)
      reference = std::move(cell);
    else
      check_cell(ctx, cell, reference);
  }

  if (!ctx.trace) {
    std::vector<double> cell_ms, rate;
    const auto loop_start = Clock::now();
    while (seconds_since(loop_start) < ctx.seconds) {
      const auto start = Clock::now();
      const Cell cell = run_cell(spec);
      const double s = seconds_since(start);
      cell_ms.push_back(s * 1e3);
      rate.push_back(algorithm_requests / s);
      check_cell(ctx, cell, reference);
    }
    ctx.report.value("peak_rss_mb", "MB", vm_hwm_mb("self"),
                     "benchmark process VmHWM");
    check_oracles(ctx, probe_layers(spec, true), reference);

    ctx.report.median("setup_s", "s", setup_s, "one warm-up cell");
    ctx.report.median("latency_p50_ms", "ms", cell_ms,
                      "cell wall: run_scenario + write_csv");
    ctx.report.percentile("latency_tail_ms", "ms", cell_ms, 75,
                          "cell wall p75");
    ctx.report.median("throughput_per_s", "1/s", rate,
                      "algorithm-requests per second of cell wall");
    std::vector<double> mreq;
    for (const double r : rate) mreq.push_back(r / 1e6);
    ctx.report.median("replay_mreq_per_s", "Mreq/s", mreq,
                      json_number(algorithm_requests) +
                          " algorithm-requests per cell / cell wall");
    return;
  }

  // Traced: each iteration times one untimed-path cell, then the same work
  // one layer call at a time (with the single-thread replay oracle).
  LayerSamples layers;
  layers.threads = spec.threads;
  std::vector<double> cell_ms;
  double sim_requests = 0;  // in-process, over the untraced cells only
  const auto loop_start = Clock::now();
  while (seconds_since(loop_start) < ctx.seconds) {
    const double before = local_sim_requests();
    const auto start = Clock::now();
    const Cell cell = run_cell(spec);
    cell_ms.push_back(seconds_since(start) * 1e3);
    sim_requests += local_sim_requests() - before;
    check_cell(ctx, cell, reference);
    layers.ops.push_back(probe_layers(spec, true));
    layers.inproc_ms.push_back(cell_ms.back());
    check_oracles(ctx, layers.ops.back(), reference);
    for (const TaskTiming& t : layers.ops.back().tasks)
      layers.core.tasks.push_back(t);
  }
  layers.core.requests = spec.requests;
  layers.requests_per_op = sim_requests / static_cast<double>(cell_ms.size());
  layers.op_p50_ms = percentile(cell_ms, 50);
  layers.runs_per_op = 1;
  layers.admit_us = admit_us(text, 2000);

  // The serve layer for this cell: a probe daemon with the results cache
  // off, so each RUN of the cell spec executes it.
  {
    DaemonProcess daemon({"--executors=2", "--cache=0", "--threads=4"});
    layers.ping_us = ping_us(daemon.socket_path(), 2000);
    layers.before = scrape(daemon.socket_path());
    const LoopResult served = closed_loop(
        ctx, daemon.socket_path(), 1, kNoDeadline, true,
        [&text](std::size_t, std::size_t k, Op& op) {
          op.text = text;
          return k < 5;
        },
        [&reference](const Op&, const serve::Client::RunOutput& out) {
          return std::string(out.csv == reference.csv
                                 ? ""
                                 : "served cell differs from run_scenario");
        });
    layers.after = scrape(daemon.socket_path());
    layers.served_cold_ms = percentile(served.latency_ms, 50);
    layers.submit_us = served.submit_us;
    layers.collect_us = served.collect_us;
  }
  report_layers(ctx.report, layers);
}

}  // namespace rdcn::bench

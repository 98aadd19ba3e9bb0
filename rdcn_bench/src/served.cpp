#include "served.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "daemon_process.hpp"
#include "obs/metrics.hpp"
#include "trace/request.hpp"

namespace rdcn::bench {

namespace {

double us_since(Clock::time_point start) { return seconds_since(start) * 1e6; }

/// Sum of every sample of `name` in Prometheus text whose labels contain
/// `label` (all samples when empty).
double prom_sum(const std::string& text, const std::string& name,
                const std::string& label = "") {
  double sum = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t end = line.find_first_of("{ ");
    if (end == std::string::npos || line.compare(0, end, name) != 0 ||
        end != name.size())
      continue;
    const std::size_t space = line.rfind(' ');
    if (!label.empty() && line.substr(0, space).find(label) == std::string::npos)
      continue;
    sum += std::stod(line.substr(space + 1));
  }
  return sum;
}

}  // namespace

LoopResult closed_loop(
    RunContext& ctx, const std::string& socket, std::size_t connections,
    double seconds, bool split,
    const std::function<bool(std::size_t conn, std::size_t k, Op& op)>& next,
    const std::function<std::string(const Op& op,
                                    const serve::Client::RunOutput& out)>&
        check) {
  struct PerConnection {
    LoopResult samples;
    std::uint64_t attempted = 0;
    std::vector<std::string> failures;
  };
  std::vector<PerConnection> per(connections);
  std::vector<serve::Client> clients(connections);
  for (serve::Client& c : clients) c.connect(socket);

  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t conn = 0; conn < connections; ++conn) {
    threads.emplace_back([&, conn] {
      PerConnection& mine = per[conn];
      serve::Client& client = clients[conn];
      Op op;
      for (std::size_t k = 0; Clock::now() < deadline && next(conn, k, op);
           ++k) {
        ++mine.attempted;
        try {
          const auto t0 = Clock::now();
          const serve::Client::Submission sub = client.submit(op.text);
          const auto t1 = Clock::now();
          if (!sub.accepted) {
            mine.failures.push_back(sub.rejected ? "REJECT " + sub.reason
                                                 : "ERROR " + sub.error);
            continue;
          }
          const serve::Client::RunOutput out = client.collect(sub.id);
          const auto t2 = Clock::now();
          mine.samples.latency_ms.push_back(
              std::chrono::duration<double, std::milli>(t2 - t0).count());
          if (split) {
            mine.samples.submit_us.push_back(
                std::chrono::duration<double, std::micro>(t1 - t0).count());
            mine.samples.collect_us.push_back(
                std::chrono::duration<double, std::micro>(t2 - t1).count());
          }
          std::string error = out.status == "ok"
                                  ? check(op, out)
                                  : "status=" + out.status + " " + out.error;
          if (!error.empty()) mine.failures.push_back(std::move(error));
        } catch (const std::exception& e) {
          mine.failures.push_back(std::string("transport: ") + e.what());
          try {
            client.reconnect(2000);
          } catch (const std::exception&) {
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  LoopResult merged;
  merged.wall_s = seconds_since(start);
  for (PerConnection& p : per) {
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(merged.latency_ms, p.samples.latency_ms);
    append(merged.submit_us, p.samples.submit_us);
    append(merged.collect_us, p.samples.collect_us);
    ctx.attempted += p.attempted;
    for (const std::string& f : p.failures) ctx.fail(f);
  }
  return merged;
}

std::vector<double> ping_us(const std::string& socket, std::size_t n) {
  serve::Client client;
  client.connect(socket);
  std::vector<double> out;
  for (std::size_t i = 0; i < n; ++i) {
    const auto start = Clock::now();
    client.ping();
    out.push_back(us_since(start));
  }
  return out;
}

Counters scrape(const std::string& socket) {
  serve::Client client;
  client.connect(socket);
  const std::string text = client.metrics();
  Counters c;
  c.queue_wait_s = prom_sum(text, "rdcn_serve_queue_wait_seconds_sum");
  c.queue_waits = prom_sum(text, "rdcn_serve_queue_wait_seconds_count");
  c.run_s = prom_sum(text, "rdcn_serve_run_seconds_sum", "status=\"ok\"");
  c.runs = prom_sum(text, "rdcn_serve_run_seconds_count", "status=\"ok\"");
  c.hits = prom_sum(text, "rdcn_serve_cache_hits_total");
  c.misses = prom_sum(text, "rdcn_serve_cache_misses_total");
  c.sim_requests = prom_sum(text, "rdcn_sim_requests_total");
  return c;
}

double local_sim_requests() {
  return static_cast<double>(
      obs::Registry::global().counter_value("rdcn_sim_requests_total"));
}

void per_op_from_scrapes(LayerSamples& s, std::size_t ops) {
  const double n = static_cast<double>(ops);
  s.runs_per_op = (s.after.runs - s.before.runs) / n;
  s.requests_per_op = (s.after.sim_requests - s.before.sim_requests) / n;
}

void report_layers(Report& r, const LayerSamples& s) {
  const auto each = [&s](double (*f)(const LayerProbe&)) {
    std::vector<double> v;
    for (const LayerProbe& p : s.ops) v.push_back(f(p));
    return v;
  };
  const std::vector<double> topology =
      each([](const LayerProbe& p) { return p.topology_ms; });
  const std::vector<double> experiment =
      each([](const LayerProbe& p) { return p.experiment_ms; });
  const LayerProbe& first = s.ops.front();
  const std::string per_op = " x " + json_number(s.runs_per_op) +
                             " runs per op / op p50 " +
                             json_number(s.op_p50_ms) + " ms";

  r.median("net.topology_build_ms", "ms", topology, "TopologyRegistry::make");
  const double racks = static_cast<double>(first.racks);
  r.value("net.distance_matrix_mb", "MB", racks * racks * 2 / (1 << 20),
          "computed: racks^2 x 2 B");
  r.value("net.topology_share_frac", "ratio",
          percentile(topology, 50) * s.runs_per_op / s.op_p50_ms,
          "topology build" + per_op);
  r.median("trace.workload_gen_ms", "ms",
           each([](const LayerProbe& p) { return p.workload_ms; }),
           "WorkloadRegistry::make");
  r.value("trace.workload_mb", "MB",
          static_cast<double>(first.requests) * 2 * sizeof(trace::Rack) /
              (1 << 20),
          "computed: requests x 2 x " + std::to_string(sizeof(trace::Rack)) +
              " B");

  struct Core {
    std::vector<double> build_ms;
    double serve_ms = 0;
  };
  std::map<std::string, Core> core;
  for (const TaskTiming& t : s.core.tasks) {
    Core& c = core["core." + t.algorithm + ".b" + std::to_string(t.b)];
    c.build_ms.push_back(t.build_ms);
    c.serve_ms += t.serve_ms;
  }
  for (const auto& [key, c] : core) {
    r.median(key + ".build_ms", "ms", c.build_ms, "AlgorithmRegistry::make");
    r.value(key + ".ns_per_request", "ns",
            c.serve_ms * 1e6 /
                (static_cast<double>(c.build_ms.size()) *
                 static_cast<double>(s.core.requests)),
            "single-thread run_simulation over " +
                std::to_string(c.build_ms.size()) + " x " +
                std::to_string(s.core.requests) + " requests");
  }
  r.value("core.serve_share_frac", "ratio",
          percentile(experiment, 50) * s.runs_per_op / s.op_p50_ms,
          "run_experiment" + per_op);

  r.median("sim.experiment_ms", "ms", experiment,
           "run_experiment, threads=" + std::to_string(s.threads));
  std::vector<double> efficiency;
  double task_sum = 0;
  for (const LayerProbe& p : s.ops) {
    efficiency.push_back(p.task_sum_ms() /
                         (static_cast<double>(s.threads) * p.experiment_ms));
    task_sum += p.task_sum_ms();
  }
  r.median("sim.pool_efficiency", "ratio", efficiency,
           "single-thread task sum (mean " +
               json_number(task_sum / static_cast<double>(s.ops.size())) +
               " ms) / (" + std::to_string(s.threads) +
               " x experiment, median " +
               json_number(percentile(experiment, 50)) + " ms)");
  r.median("sim.csv_render_us", "us",
           each([](const LayerProbe& p) { return p.csv_us; }),
           "sim::write_csv");
  r.value("sim.requests_per_op", "count", s.requests_per_op,
          "rdcn_sim_requests_total delta over the timed ops");

  r.value("scenario.spec_admit_us", "us", s.admit_us,
          "parse + 3 validate + canonical_string");

  r.percentile("serve.ping_us_p50", "us", s.ping_us, 50, "idle daemon");
  r.percentile("serve.ping_us_p99", "us", s.ping_us, 99, "idle daemon");
  r.percentile("serve.submit_us_p50", "us", s.submit_us, 50);
  r.percentile("serve.submit_us_p99", "us", s.submit_us, 99);
  r.percentile("serve.collect_us_p50", "us", s.collect_us, 50);
  r.value("serve.cold_overhead_ms", "ms",
          s.served_cold_ms - percentile(s.inproc_ms, 50),
          "served cold p50 " + json_number(s.served_cold_ms) +
              " ms - in-process p50 " +
              json_number(percentile(s.inproc_ms, 50)) + " ms");
  const double waits = s.after.queue_waits - s.before.queue_waits;
  r.value("serve.queue_wait_mean_ms", "ms",
          waits > 0 ? (s.after.queue_wait_s - s.before.queue_wait_s) /
                          waits * 1e3
                    : 0,
          "METRICS delta, " + json_number(waits) + " waits");
  const double runs = s.after.runs - s.before.runs;
  r.value("serve.run_mean_ms", "ms",
          runs > 0 ? (s.after.run_s - s.before.run_s) / runs * 1e3 : 0,
          "METRICS delta, " + json_number(runs) + " runs");
  const double hits = s.after.hits - s.before.hits;
  const double misses = s.after.misses - s.before.misses;
  r.value("serve.cache_hit_ratio", "ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0,
          json_number(hits) + " hits, " + json_number(misses) + " misses");

  std::vector<double> overhead;
  for (std::size_t i = 0; i < s.ops.size(); ++i)
    overhead.push_back((s.ops[i].layer_sum_ms() - s.inproc_ms[i]) /
                       s.inproc_ms[i]);
  r.median("bench.trace_overhead_frac", "ratio", overhead,
           "(sum of layer calls - run_scenario+write_csv) / the latter");
}

// --------------------------------------------------------------------------
// sweep_1k_cold
// --------------------------------------------------------------------------

namespace {

/// Runs `cells` in-process on `workers` threads; returns the first
/// mismatch against `expected` per index ("" when equal).
std::vector<std::string> verify_parallel(
    const std::vector<std::string>& specs,
    const std::vector<std::string>& expected, std::size_t workers) {
  std::vector<std::string> errors(specs.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < specs.size(); i = next++) {
        try {
          if (run_cell(scenario::ScenarioSpec::parse(specs[i])).csv !=
              expected[i])
            errors[i] = "served CSV differs from run_scenario: " + specs[i];
        } catch (const std::exception& e) {
          errors[i] = std::string("reference run failed: ") + e.what();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return errors;
}

}  // namespace

void run_sweep_1k_cold(RunContext& ctx) {
  const std::string fabric =
      "topology=fat_tree;workload=facebook_web;racks=1000;requests=100000;"
      "trials=1;seed=" +
      std::to_string(ctx.seed);
  const auto spec_for = [&fabric](const std::string& algorithm,
                                  std::size_t b, std::size_t alpha) {
    return fabric + ";algorithms=" + algorithm + ";b=" + std::to_string(b) +
           ";alpha=" + std::to_string(alpha);
  };
  // 3 x 16 x 20 = 960 distinct experiments, drawn without replacement in
  // a seed-determined order: no RUN can hit the results cache.
  std::vector<std::string> pool;
  for (const char* algorithm : {"bma", "r_bma", "greedy"})
    for (std::size_t b = 2; b <= 32; b += 2)
      for (std::size_t alpha = 20; alpha < 120; alpha += 5)
        pool.push_back(spec_for(algorithm, b, alpha));
  std::mt19937_64 shuffle_rng(ctx.seed);
  std::shuffle(pool.begin(), pool.end(), shuffle_rng);
  // The warm-up experiment lies outside the drawn grid.
  const std::string warm_spec = spec_for("oblivious", 1, 1000);
  const std::vector<std::string> flags = {"--executors=2", "--threads=1"};

  std::vector<double> setup_s;
  std::optional<DaemonProcess> daemon;
  std::string warm_csv;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    daemon.reset();
    const auto start = Clock::now();
    daemon.emplace(flags);
    closed_loop(
        ctx, daemon->socket_path(), 1, kNoDeadline, false,
        [&warm_spec](std::size_t, std::size_t k, Op& op) {
          op.text = warm_spec;
          return k < 1;
        },
        [&warm_csv](const Op&, const serve::Client::RunOutput& out) {
          warm_csv = out.csv;  // checked with the loop's payloads
          return std::string();
        });
    setup_s.push_back(seconds_since(start));
  }

  LayerSamples layers;
  if (ctx.trace) layers.before = scrape(daemon->socket_path());
  std::atomic<std::size_t> drawn{0};
  std::mutex served_mu;
  std::vector<std::string> served_specs, served_csv;
  const LoopResult loop = closed_loop(
      ctx, daemon->socket_path(), 2, ctx.seconds, ctx.trace,
      [&](std::size_t, std::size_t, Op& op) {
        const std::size_t i = drawn++;
        if (i >= pool.size()) return false;
        op = {i, pool[i]};
        return true;
      },
      [&](const Op& op, const serve::Client::RunOutput& out) {
        const std::lock_guard<std::mutex> lock(served_mu);
        served_specs.push_back(op.text);
        served_csv.push_back(out.csv);
        return std::string(out.cached ? "cold run answered from cache" : "");
      });
  if (ctx.trace) {
    layers.after = scrape(daemon->socket_path());
    layers.ping_us = ping_us(daemon->socket_path(), 2000);
  } else {
    ctx.report.value("peak_rss_mb", "MB", daemon->peak_rss_mb(),
                     "daemon VmHWM before SHUTDOWN");
  }
  daemon->stop();

  // Oracle: every payload byte-equal to an in-process run of its spec.
  // Traced runs time the first few references one at a time (they are
  // the in-process side of serve.cold_overhead_ms) and probe their layers.
  served_specs.push_back(warm_spec);
  served_csv.push_back(warm_csv);
  std::size_t timed = 0;
  if (ctx.trace) {
    timed = std::min<std::size_t>(10, served_specs.size());
    for (std::size_t i = 0; i < timed; ++i) {
      const scenario::ScenarioSpec spec =
          scenario::ScenarioSpec::parse(served_specs[i]);
      const auto start = Clock::now();
      const Cell cell = run_cell(spec);
      layers.inproc_ms.push_back(seconds_since(start) * 1e3);
      if (cell.csv != served_csv[i])
        ctx.fail("served CSV differs from run_scenario: " + served_specs[i]);
      layers.ops.push_back(probe_layers(spec, true));
      if (!same_ledgers(layers.ops.back().serial, ledgers(cell.runs)))
        ctx.fail("serial replay ledger differs: " + served_specs[i]);
    }
  }
  const std::vector<std::string> rest_specs(served_specs.begin() + timed,
                                            served_specs.end());
  const std::vector<std::string> rest_csv(served_csv.begin() + timed,
                                          served_csv.end());
  for (const std::string& error : verify_parallel(rest_specs, rest_csv, 4))
    if (!error.empty()) ctx.fail(error);

  if (!ctx.trace) {
    ctx.report.median("setup_s", "s", setup_s,
                      "daemon spawn + connect + one warm-up cold run");
    ctx.report.median("latency_p50_ms", "ms", loop.latency_ms,
                      "= cold_run_p50_ms");
    ctx.report.percentile("latency_tail_ms", "ms", loop.latency_ms, 90,
                          "= cold_run_p90_ms");
    ctx.report.median("cold_run_p50_ms", "ms", loop.latency_ms,
                      "RUN sent to DONE received");
    ctx.report.percentile("cold_run_p90_ms", "ms", loop.latency_ms, 90);
    const double rate =
        static_cast<double>(loop.latency_ms.size()) / loop.wall_s;
    ctx.report.value("throughput_per_s", "1/s", rate, "= cold_runs_per_s");
    ctx.report.value("cold_runs_per_s", "1/s", rate,
                     std::to_string(loop.latency_ms.size()) + " runs / " +
                         json_number(loop.wall_s) + " s, 2 connections");
    return;
  }

  std::string core_spec = fabric + ";algorithms=" + kCoreAlgorithms +
                          ";b=" + kCoreCacheSizes + ";alpha=60;threads=1";
  layers.core = probe_layers(scenario::ScenarioSpec::parse(core_spec), true);
  std::vector<double> admit;
  for (std::size_t i = 0; i < timed; ++i)
    admit.push_back(admit_us(served_specs[i], 200));
  layers.admit_us = percentile(admit, 50);
  layers.threads = 1;
  layers.op_p50_ms = percentile(loop.latency_ms, 50);
  layers.served_cold_ms = layers.op_p50_ms;
  per_op_from_scrapes(layers, loop.latency_ms.size());
  layers.submit_us = loop.submit_us;
  layers.collect_us = loop.collect_us;
  report_layers(ctx.report, layers);
}

// --------------------------------------------------------------------------
// serve_cached
// --------------------------------------------------------------------------

void run_serve_cached(RunContext& ctx) {
  constexpr std::size_t kConnections = 4;
  constexpr std::size_t kVariants = 8;
  // 32 small experiments.  Each is printed in kVariants ways — the
  // scenario fields rotated and the workload's params permuted — that all
  // share one canonical form.
  std::vector<std::vector<std::string>> texts;
  for (const char* algorithm : {"bma", "greedy"}) {
    for (const std::size_t b : {2, 4, 8, 16}) {
      for (const int elephants : {10, 25, 40, 55}) {
        std::vector<std::string> params = {
            "rack_skew=1.2", "elephants=" + std::to_string(elephants),
            "boost=30"};
        std::vector<std::string> variants;
        for (std::size_t v = 0; v < kVariants; ++v) {
          std::next_permutation(params.begin(), params.end());
          std::vector<std::string> fields = {
              "topology=fat_tree",
              "workload=microsoft:" + params[0] + "," + params[1] + "," +
                  params[2],
              std::string("algorithms=") + algorithm,
              "b=" + std::to_string(b),
              "racks=100",
              "requests=20000",
              "seed=" + std::to_string(ctx.seed)};
          std::rotate(fields.begin(),
                      fields.begin() + static_cast<long>(v % fields.size()),
                      fields.end());
          std::string text;
          for (const std::string& f : fields) text += (text.empty() ? "" : ";") + f;
          variants.push_back(text);
        }
        texts.push_back(std::move(variants));
      }
    }
  }
  std::vector<std::size_t> order(texts.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 shuffle_rng(ctx.seed);
  std::shuffle(order.begin(), order.end(), shuffle_rng);

  // References (untimed): the bytes every served RUN must carry.
  std::vector<std::string> expected;
  for (const std::vector<std::string>& variants : texts)
    expected.push_back(run_cell(scenario::ScenarioSpec::parse(variants[0])).csv);

  const std::vector<std::string> flags = {"--executors=2", "--cache=64"};
  std::vector<double> setup_s, warm_ms;
  std::optional<DaemonProcess> daemon;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    daemon.reset();
    const auto start = Clock::now();
    daemon.emplace(flags);
    const LoopResult warm = closed_loop(
        ctx, daemon->socket_path(), 1, kNoDeadline, false,
        [&texts](std::size_t, std::size_t k, Op& op) {
          if (k >= texts.size()) return false;
          op = {k, texts[k][0]};
          return true;
        },
        [&expected](const Op& op, const serve::Client::RunOutput& out) {
          return out.csv == expected[op.key]
                     ? std::string()
                     : "warm-up CSV differs from run_scenario: " + op.text;
        });
    setup_s.push_back(seconds_since(start));
    warm_ms.insert(warm_ms.end(), warm.latency_ms.begin(),
                   warm.latency_ms.end());
  }

  LayerSamples layers;
  if (ctx.trace) layers.before = scrape(daemon->socket_path());
  const LoopResult loop = closed_loop(
      ctx, daemon->socket_path(), kConnections, ctx.seconds, ctx.trace,
      [&](std::size_t conn, std::size_t k, Op& op) {
        // Round-robin over all 32, each connection from its own offset.
        const std::size_t spec =
            order[(conn * texts.size() / kConnections + k) % texts.size()];
        op.key = spec;
        op.text = texts[spec][(k / texts.size() + conn) % kVariants];
        return true;
      },
      [&](const Op& op, const serve::Client::RunOutput& out) {
        if (!out.cached) return "not a cache hit: " + op.text;
        if (out.csv != expected[op.key])
          return "cached CSV differs from run_scenario: " + op.text;
        return std::string();
      });
  if (ctx.trace) {
    layers.after = scrape(daemon->socket_path());
    layers.ping_us = ping_us(daemon->socket_path(), 2000);
  } else {
    ctx.report.value("peak_rss_mb", "MB", daemon->peak_rss_mb(),
                     "daemon VmHWM before SHUTDOWN");
  }
  daemon->stop();

  if (!ctx.trace) {
    ctx.report.median("setup_s", "s", setup_s,
                      "daemon spawn + connect + 32 cold warm-up runs");
    ctx.report.median("latency_p50_ms", "ms", loop.latency_ms,
                      "= cached_run_p50_us / 1000");
    // The bounded tail is p90: between runs of one build the p99 swung
    // 58-92 us with the host's scheduling, wider than any bound allows.
    ctx.report.percentile("latency_tail_ms", "ms", loop.latency_ms, 90,
                          "= cached_run_p90_us / 1000");
    std::vector<double> us;
    for (const double ms : loop.latency_ms) us.push_back(ms * 1e3);
    ctx.report.median("cached_run_p50_us", "us", us,
                      "RUN sent to DONE received");
    ctx.report.percentile("cached_run_p90_us", "us", us, 90);
    ctx.report.percentile("cached_run_p99_us", "us", us, 99);
    const double rate =
        static_cast<double>(loop.latency_ms.size()) / loop.wall_s;
    ctx.report.value("throughput_per_s", "1/s", rate, "= cached_runs_per_s");
    ctx.report.value("cached_runs_per_s", "1/s", rate,
                     std::to_string(loop.latency_ms.size()) + " runs / " +
                         json_number(loop.wall_s) + " s, 4 connections");
    return;
  }

  // Each spec timed in-process again, warm, right before its layer probe.
  std::vector<double> admit;
  for (const std::vector<std::string>& variants : texts) {
    const scenario::ScenarioSpec spec =
        scenario::ScenarioSpec::parse(variants[0]);
    const auto start = Clock::now();
    const Cell cell = run_cell(spec);
    layers.inproc_ms.push_back(seconds_since(start) * 1e3);
    layers.ops.push_back(probe_layers(spec, true));
    ++ctx.attempted;
    if (!same_ledgers(layers.ops.back().serial, ledgers(cell.runs)))
      ctx.fail("serial replay ledger differs: " + variants[0]);
    admit.push_back(admit_us(variants[1], 200));
  }
  const std::string core_spec =
      "topology=fat_tree;workload=microsoft;racks=100;requests=20000;"
      "trials=1;alpha=60;threads=4;seed=" +
      std::to_string(ctx.seed) + ";algorithms=" + kCoreAlgorithms +
      ";b=" + kCoreCacheSizes;
  layers.core = probe_layers(scenario::ScenarioSpec::parse(core_spec), true);
  layers.admit_us = percentile(admit, 50);
  // The specs leave threads at 0: all cores.
  layers.threads = std::max(1u, std::thread::hardware_concurrency());
  layers.op_p50_ms = percentile(loop.latency_ms, 50);
  layers.served_cold_ms = percentile(warm_ms, 50);
  per_op_from_scrapes(layers, loop.latency_ms.size());
  layers.submit_us = loop.submit_us;
  layers.collect_us = loop.collect_us;
  report_layers(ctx.report, layers);
}

}  // namespace rdcn::bench

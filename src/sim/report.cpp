#include "sim/report.hpp"

#include <iomanip>
#include <iterator>
#include <limits>
#include <ostream>

#include "common/assert.hpp"
#include "common/param_map.hpp"
#include "scenario/registry.hpp"

namespace rdcn::sim {

namespace {

constexpr Metric kAllMetrics[] = {
    Metric::kRoutingCost,    Metric::kTotalCost,    Metric::kWallSeconds,
    Metric::kMatchingSize,   Metric::kDirectFraction,
    Metric::kReconfigCost,
};
// A new Metric member must be added to kAllMetrics or it silently
// disappears from the generated help and parse_metric.
static_assert(std::size(kAllMetrics) ==
              static_cast<std::size_t>(Metric::kReconfigCost) + 1);

}  // namespace

std::string metric_name(Metric metric) {
  switch (metric) {
    case Metric::kRoutingCost: return "routing_cost";
    case Metric::kTotalCost: return "total_cost";
    case Metric::kWallSeconds: return "wall_seconds";
    case Metric::kMatchingSize: return "matching_size";
    case Metric::kDirectFraction: return "direct_fraction";
    case Metric::kReconfigCost: return "reconfig_cost";
  }
  return "unknown";
}

const std::vector<std::string>& metric_names() {
  static const std::vector<std::string>* names = [] {
    auto* out = new std::vector<std::string>();
    for (const Metric m : kAllMetrics) out->push_back(metric_name(m));
    return out;
  }();
  return *names;
}

Metric parse_metric(const std::string& name) {
  for (const Metric m : kAllMetrics)
    if (metric_name(m) == name) return m;
  std::string msg = "unknown metric '" + name + "'";
  const std::string suggestion =
      scenario::nearest_name(name, metric_names());
  if (!suggestion.empty()) msg += " (did you mean '" + suggestion + "'?)";
  std::string known;
  for (const std::string& n : metric_names())
    known += (known.empty() ? "" : ", ") + n;
  throw SpecError(msg + "; known: " + known);
}

double metric_value(const Checkpoint& c, Metric metric) {
  switch (metric) {
    case Metric::kRoutingCost: return static_cast<double>(c.routing_cost);
    case Metric::kTotalCost: return static_cast<double>(c.total_cost);
    case Metric::kWallSeconds: return c.wall_seconds;
    case Metric::kMatchingSize: return static_cast<double>(c.matching_size);
    case Metric::kDirectFraction:
      return c.requests == 0 ? 0.0
                             : static_cast<double>(c.direct_serves) /
                                   static_cast<double>(c.requests);
    case Metric::kReconfigCost: return static_cast<double>(c.reconfig_cost);
  }
  return 0.0;
}

namespace {

void check_common_grid(const std::vector<RunResult>& results) {
  RDCN_ASSERT_MSG(!results.empty(), "no results to report");
  const std::size_t points = results.front().checkpoints.size();
  for (const RunResult& r : results) {
    RDCN_ASSERT_MSG(r.checkpoints.size() == points,
                    "results have differing checkpoint grids");
  }
}

}  // namespace

void print_table(std::ostream& out, const std::vector<RunResult>& results,
                 Metric metric, const std::string& title) {
  check_common_grid(results);
  out << "== " << title << " [" << metric_name(metric) << "] ==\n";
  out << std::setw(12) << "requests";
  for (const RunResult& r : results) {
    out << std::setw(22) << r.algorithm;
  }
  out << "\n";
  const std::size_t points = results.front().checkpoints.size();
  out << std::fixed;
  for (std::size_t p = 0; p < points; ++p) {
    out << std::setw(12) << results.front().checkpoints[p].requests;
    for (const RunResult& r : results) {
      const double v = metric_value(r.checkpoints[p], metric);
      if (metric == Metric::kWallSeconds || metric == Metric::kDirectFraction)
        out << std::setw(22) << std::setprecision(4) << v;
      else
        out << std::setw(22) << std::setprecision(0) << v;
    }
    out << "\n";
  }
  out << "\n";
}

namespace {

/// One CSV cell, exact: counts as integers, fractions with enough digits
/// to read back the same double.
void write_cell(std::ostream& out, const Checkpoint& c, Metric metric) {
  switch (metric) {
    case Metric::kRoutingCost: out << c.routing_cost; return;
    case Metric::kTotalCost: out << c.total_cost; return;
    case Metric::kMatchingSize: out << c.matching_size; return;
    case Metric::kReconfigCost: out << c.reconfig_cost; return;
    case Metric::kWallSeconds:
    case Metric::kDirectFraction:
      out << std::defaultfloat
          << std::setprecision(std::numeric_limits<double>::max_digits10)
          << metric_value(c, metric);
      return;
  }
}

}  // namespace

void write_csv(std::ostream& out, const std::vector<RunResult>& results,
               Metric metric) {
  check_common_grid(results);
  out << "requests";
  for (const RunResult& r : results) out << "," << r.algorithm;
  out << "\n";
  const std::size_t points = results.front().checkpoints.size();
  for (std::size_t p = 0; p < points; ++p) {
    out << results.front().checkpoints[p].requests;
    for (const RunResult& r : results) {
      out << ",";
      write_cell(out, r.checkpoints[p], metric);
    }
    out << "\n";
  }
}

void print_summary(std::ostream& out, const std::vector<RunResult>& results,
                   const RunResult& baseline) {
  const double base_cost =
      static_cast<double>(baseline.final().routing_cost);
  out << "== summary (vs " << baseline.algorithm << ") ==\n";
  for (const RunResult& r : results) {
    const Checkpoint& f = r.final();
    const double reduction =
        base_cost > 0.0
            ? 100.0 * (1.0 - static_cast<double>(f.routing_cost) / base_cost)
            : 0.0;
    out << "  " << std::left << std::setw(24) << r.algorithm << std::right
        << " routing=" << std::setw(12) << f.routing_cost
        << "  reduction=" << std::fixed << std::setprecision(1)
        << std::setw(6) << reduction << "%"
        << "  reconfig=" << std::setw(10) << f.reconfig_cost
        << "  time=" << std::setprecision(3) << std::setw(8) << f.wall_seconds
        << "s\n";
  }
  out << "\n";
}

}  // namespace rdcn::sim

// rdcn_bench: samples, percentiles, and the metric report.
//
// Percentile rule (nearest rank): the p-th percentile of n sorted samples
// is the sample at rank ceil(p/100 * n), 1-based.  A timing is reported
// as its median with the first and third quartile and the sample count.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rdcn::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile of `values` (copied and sorted); 0 when empty.
double percentile(std::vector<double> values, double p);

struct Summary {
  std::size_t n = 0;
  double p25 = 0;
  double p50 = 0;
  double p75 = 0;
};

/// One reported number.  `n` and the quartiles describe the samples the
/// value was taken from (n = 1 for a single measurement or a computed
/// value); `basis` says how it was obtained when that is not obvious.
struct Metric {
  double value = 0;
  std::string unit;
  Summary samples;
  std::string basis;
};

/// Named metrics plus the run's environment record, rendered as the
/// human-readable listing, the detailed result file, and the one-line
/// result the last line of standard output carries.
class Report {
 public:
  /// A metric whose value is the median of `values`.
  void median(const std::string& name, const std::string& unit,
              const std::vector<double>& values, std::string basis = "");
  /// A metric whose value is the given percentile of `values`.
  void percentile(const std::string& name, const std::string& unit,
                  const std::vector<double>& values, double p,
                  std::string basis = "");
  /// A single measured or computed value.
  void value(const std::string& name, const std::string& unit, double v,
             std::string basis = "");

  void env(const std::string& key, const std::string& v) { env_[key] = v; }

  const std::map<std::string, Metric>& metrics() const { return metrics_; }

  /// "name = value unit (p25 .. p75, n=N) basis" per metric.
  std::string listing() const;
  /// {"env": {...}, "correct": .., "attempted": .., "failed": ..,
  ///  "metrics": {name: {value, unit, n, p25, p50, p75, basis}}}
  std::string detail_json(bool correct, std::uint64_t attempted,
                          std::uint64_t failed) const;
  /// The result line: only the metrics named in `names`, value and unit.
  std::string result_line(bool correct, std::uint64_t attempted,
                          std::uint64_t failed,
                          const std::vector<std::string>& names) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> env_;
};

/// Shortest exact rendering of a finite double ("0" for non-finite).
std::string json_number(double v);

}  // namespace rdcn::bench

#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "common/assert.hpp"
#include "common/clock.hpp"
#include "common/fault.hpp"
#include "common/param_map.hpp"

namespace rdcn::obs {

namespace detail {

std::size_t stripe_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed) & (kStripes - 1);
  return mine;
}

}  // namespace detail

namespace {

/// Prometheus label value escaping: backslash, double quote, newline.
std::string escape_label(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '"')
      out += "\\\"";
    else if (c == '\n')
      out += "\\n";
    else
      out += c;
  }
  return out;
}

std::string render_labels(const Labels& sorted) {
  if (sorted.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : sorted) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    out += escape_label(v);
    out += "\"";
  }
  out += "}";
  return out;
}

/// Shortest round-trippable-enough double (le bounds, _sum seconds).
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

Labels sorted_labels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

std::vector<std::uint64_t> default_latency_buckets_ns() {
  // 1 us .. 4^13 us ≈ 67 s, powers of four: 14 finite buckets.
  std::vector<std::uint64_t> bounds;
  std::uint64_t b = 1000;
  for (int i = 0; i < 14; ++i) {
    bounds.push_back(b);
    b *= 4;
  }
  return bounds;
}

Histogram::Histogram(std::vector<std::uint64_t> bounds_ns)
    : bounds_ns_(std::move(bounds_ns)),
      cells_(detail::kStripes * (bounds_ns_.size() + 2)) {
  RDCN_ASSERT(std::is_sorted(bounds_ns_.begin(), bounds_ns_.end()));
  RDCN_ASSERT(!bounds_ns_.empty());
}

std::uint64_t Histogram::count() const noexcept {
  return cumulative(bounds_ns_.size());
}

std::uint64_t Histogram::sum_ns() const noexcept {
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < detail::kStripes; ++s)
    sum += cells_[s * (bounds_ns_.size() + 2) + bounds_ns_.size() + 1].v.load(
        std::memory_order_relaxed);
  return sum;
}

std::uint64_t Histogram::cumulative(std::size_t i) const noexcept {
  RDCN_ASSERT(i <= bounds_ns_.size());
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < detail::kStripes; ++s)
    for (std::size_t b = 0; b <= i; ++b)
      sum += cell_c(s, b).load(std::memory_order_relaxed);
  return sum;
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Registry::Child& Registry::intern(const std::string& name,
                                  const std::string& help, Type type,
                                  const Labels& labels) {
  // Caller holds mu_.
  auto [fit, inserted] = families_.try_emplace(name);
  Family& family = fit->second;
  if (inserted) {
    family.type = type;
    family.help = help;
  } else if (family.type != type) {
    throw SpecError("metric '" + name +
                    "' re-registered with a different type");
  }
  Labels sorted = sorted_labels(labels);
  for (Child& child : family.children)
    if (child.labels == sorted) return child;
  Child child;
  child.rendered = render_labels(sorted);
  child.labels = std::move(sorted);
  family.children.push_back(std::move(child));
  return family.children.back();
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           const Labels& labels) {
  const std::lock_guard<std::mutex> lock(mu_);
  Child& child = intern(name, help, Type::kCounter, labels);
  if (child.counter == nullptr) {
    counters_.emplace_back();
    child.counter = &counters_.back();
  }
  return *child.counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       const Labels& labels) {
  const std::lock_guard<std::mutex> lock(mu_);
  Child& child = intern(name, help, Type::kGauge, labels);
  if (child.gauge == nullptr) {
    gauges_.emplace_back();
    child.gauge = &gauges_.back();
  }
  return *child.gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::string& help,
                               std::vector<std::uint64_t> bounds_ns,
                               const Labels& labels) {
  const std::lock_guard<std::mutex> lock(mu_);
  Child& child = intern(name, help, Type::kHistogram, labels);
  if (child.histogram == nullptr) {
    histograms_.emplace_back(std::move(bounds_ns));
    child.histogram = &histograms_.back();
  }
  return *child.histogram;
}

std::uint64_t Registry::counter_value(const std::string& name,
                                      const Labels& labels) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto fit = families_.find(name);
  if (fit == families_.end()) return 0;
  const Labels sorted = sorted_labels(labels);
  for (const Child& child : fit->second.children)
    if (child.labels == sorted && child.counter != nullptr)
      return child.counter->value();
  return 0;
}

std::int64_t Registry::gauge_value(const std::string& name,
                                   const Labels& labels) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto fit = families_.find(name);
  if (fit == families_.end()) return 0;
  const Labels sorted = sorted_labels(labels);
  for (const Child& child : fit->second.children)
    if (child.labels == sorted && child.gauge != nullptr)
      return child.gauge->value();
  return 0;
}

std::map<std::string, Registry::Family> Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return families_;
}

std::string Registry::render_prometheus() const {
  std::string out;
  for (const auto& [name, family] : snapshot()) {
    out += "# HELP " + name + " " + family.help + "\n";
    out += "# TYPE " + name + " ";
    out += family.type == Type::kCounter
               ? "counter"
               : (family.type == Type::kGauge ? "gauge" : "histogram");
    out += "\n";
    for (const Child& child : family.children) {
      switch (family.type) {
        case Type::kCounter:
          out += name + child.rendered + " " +
                 std::to_string(child.counter->value()) + "\n";
          break;
        case Type::kGauge:
          out += name + child.rendered + " " +
                 std::to_string(child.gauge->value()) + "\n";
          break;
        case Type::kHistogram: {
          const Histogram& h = *child.histogram;
          // Re-render labels with le appended; _sum/_count keep the
          // child's own label set.
          for (std::size_t i = 0; i <= h.bounds_ns().size(); ++i) {
            Labels with_le = child.labels;
            with_le.emplace_back(
                "le", i < h.bounds_ns().size()
                          ? fmt_double(ns_to_seconds(h.bounds_ns()[i]))
                          : "+Inf");
            out += name + "_bucket" + render_labels(sorted_labels(with_le)) +
                   " " + std::to_string(h.cumulative(i)) + "\n";
          }
          out += name + "_sum" + child.rendered + " " +
                 fmt_double(ns_to_seconds(h.sum_ns())) + "\n";
          out += name + "_count" + child.rendered + " " +
                 std::to_string(h.count()) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

std::string Registry::render_json() const {
  std::string out = "{";
  bool first = true;
  auto key = [](const std::string& name, const Child& child) {
    std::string k = name + child.rendered;
    std::string escaped;
    for (char c : k) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    return "\"" + escaped + "\"";
  };
  for (const auto& [name, family] : snapshot()) {
    for (const Child& child : family.children) {
      if (!first) out += ",";
      first = false;
      out += key(name, child);
      out += ":";
      switch (family.type) {
        case Type::kCounter:
          out += std::to_string(child.counter->value());
          break;
        case Type::kGauge:
          out += std::to_string(child.gauge->value());
          break;
        case Type::kHistogram: {
          const Histogram& h = *child.histogram;
          out += "{\"count\":" + std::to_string(h.count()) +
                 ",\"sum_seconds\":" + fmt_double(ns_to_seconds(h.sum_ns())) +
                 ",\"buckets\":{";
          for (std::size_t i = 0; i <= h.bounds_ns().size(); ++i) {
            if (i > 0) out += ",";
            out += "\"";
            out += i < h.bounds_ns().size()
                       ? fmt_double(ns_to_seconds(h.bounds_ns()[i]))
                       : "+Inf";
            out += "\":" + std::to_string(h.cumulative(i));
          }
          out += "}}";
          break;
        }
      }
    }
  }
  out += "}";
  return out;
}

namespace {

void count_fault_fire(const char* point) {
  // Fires only happen while faults are armed, so the registration
  // mutex on this path costs nothing in production.
  Registry::global()
      .counter("rdcn_fault_fires_total",
               "Fault-injection point firings (common/fault.hpp)",
               {{"point", point}})
      .inc();
}

}  // namespace

void install_fault_observer() { fault::set_fire_observer(&count_fault_fire); }

}  // namespace rdcn::obs

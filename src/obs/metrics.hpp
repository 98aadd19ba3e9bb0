// rdcn_obs: process metrics — monotonic counters, gauges, and
// fixed-bucket latency histograms.
//
// Design contract (mirrors common/fault.hpp's "free when off" bar):
//
//   * Registration is the slow path.  `Registry::counter(name, help,
//     labels)` interns the name and label set under a mutex ONCE and
//     hands back a stable `Counter&`.  Call sites hold the reference
//     (typically via a function-local static or a member), so the hot
//     path never touches a map or a string.
//   * Recording is the fast path.  A counter add is one relaxed
//     fetch_add on a thread-striped, cache-line-padded cell — no lock,
//     no false sharing between recording threads.  A histogram observe
//     is two such adds (bucket + sum).
//   * Reading (exposition, STATS) sums the stripes.  Reads are racy by
//     design — a scrape sees *a* recent value, not a linearization
//     point — which is exactly the Prometheus counter contract.  A render
//     copies the family table under the registration mutex and formats
//     from the copy with the mutex released.
//
// Registries are instantiable: the serve daemon owns one per instance
// (so sequential daemons in one test process start from zero), while
// process-wide subsystems (ThreadPool, simulator, fault hooks) record
// into `Registry::global()`.  Rendering supports Prometheus text
// exposition (the `METRICS` verb) and a JSON snapshot (`--metrics-dump`).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rdcn::obs {

/// Label set for one metric child, e.g. {{"status", "ok"}}.  Order is
/// irrelevant: registration canonicalizes by key.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {

/// Stripe count for sharded cells.  Power of two; 8 stripes keeps the
/// worst-case read cost trivial while spreading writers enough that the
/// instrumentation stays below benchmark noise.
inline constexpr std::size_t kStripes = 8;

struct alignas(64) StripeCell {
  std::atomic<std::uint64_t> v{0};
};

/// This thread's stripe.  Threads are assigned round-robin at first
/// use; the id is stable for the thread's lifetime.
std::size_t stripe_index() noexcept;

}  // namespace detail

/// Monotonic counter.  add() is wait-free; value() is a racy sum.
class Counter {
 public:
  Counter() = default;  ///< prefer Registry::counter(); handles live there
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    cells_[detail::stripe_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }

  std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& cell : cells_)
      sum += cell.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  detail::StripeCell cells_[detail::kStripes];
};

/// Last-write-wins signed gauge (queue depths, entry counts).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket latency histogram.  Bounds are inclusive upper edges in
/// nanoseconds (a trailing +Inf bucket is implicit).  observe_ns() is
/// two striped relaxed adds: the target bucket's count and the sum.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds_ns);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe_ns(std::uint64_t ns) noexcept {
    std::size_t b = 0;
    while (b < bounds_ns_.size() && ns > bounds_ns_[b]) ++b;
    const std::size_t stripe = detail::stripe_index();
    cell(stripe, b).fetch_add(1, std::memory_order_relaxed);
    sum_cell(stripe).fetch_add(ns, std::memory_order_relaxed);
  }
  void observe_seconds(double s) noexcept {
    observe_ns(s <= 0.0 ? 0 : static_cast<std::uint64_t>(s * 1e9));
  }

  const std::vector<std::uint64_t>& bounds_ns() const { return bounds_ns_; }
  std::uint64_t count() const noexcept;   ///< total observations
  std::uint64_t sum_ns() const noexcept;  ///< sum of observed values
  /// Cumulative count of observations <= bounds_ns()[i]; i ==
  /// bounds_ns().size() gives the +Inf bucket (== count()).
  std::uint64_t cumulative(std::size_t i) const noexcept;

 private:
  std::atomic<std::uint64_t>& cell(std::size_t stripe, std::size_t bucket) {
    return cells_[stripe * (bounds_ns_.size() + 2) + bucket].v;
  }
  std::atomic<std::uint64_t>& sum_cell(std::size_t stripe) {
    return cells_[stripe * (bounds_ns_.size() + 2) + bounds_ns_.size() + 1].v;
  }
  const std::atomic<std::uint64_t>& cell_c(std::size_t stripe,
                                           std::size_t bucket) const {
    return cells_[stripe * (bounds_ns_.size() + 2) + bucket].v;
  }

  std::vector<std::uint64_t> bounds_ns_;
  /// kStripes blocks of [bucket 0 .. bucket B (=+Inf), sum].
  std::vector<detail::StripeCell> cells_;
};

/// Default latency bucket edges: 1 us to ~67 s, powers of 4.  Wide
/// enough for a microsecond serve chunk and a minute-long matrix run.
std::vector<std::uint64_t> default_latency_buckets_ns();

/// Installs a fault::FireObserver that bumps
/// rdcn_fault_fires_total{point="..."} in Registry::global() on every
/// fault firing.  Idempotent; costs nothing while faults are disarmed.
void install_fault_observer();

/// A named family of metrics.  counter()/gauge()/histogram() intern the
/// (name, labels) pair: a second registration returns the same handle,
/// so independent call sites can share a metric safely.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry (ThreadPool, simulator, fault hooks).
  static Registry& global();

  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<std::uint64_t> bounds_ns,
                       const Labels& labels = {});
  Histogram& latency_histogram(const std::string& name,
                               const std::string& help,
                               const Labels& labels = {}) {
    return histogram(name, help, default_latency_buckets_ns(), labels);
  }

  /// Point reads for tests and the STATS re-derivation.  Absent metrics
  /// read as zero.
  std::uint64_t counter_value(const std::string& name,
                              const Labels& labels = {}) const;
  std::int64_t gauge_value(const std::string& name,
                           const Labels& labels = {}) const;

  /// Prometheus text exposition format, families sorted by name:
  ///   # HELP name help
  ///   # TYPE name counter|gauge|histogram
  ///   name{label="v"} 123
  /// Histograms expand to name_bucket{le=...}/name_sum/name_count with
  /// le and _sum in seconds.
  std::string render_prometheus() const;

  /// One JSON object {"metric{labels}": value, ...}; histograms render
  /// as {"count": N, "sum_seconds": S, "buckets": {"le": cum, ...}}.
  std::string render_json() const;

 private:
  enum class Type { kCounter, kGauge, kHistogram };
  struct Child {
    Labels labels;        // sorted by key
    std::string rendered; // canonical {k="v",...} or ""
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };
  struct Family {
    Type type;
    std::string help;
    std::vector<Child> children;  // in registration order
  };

  Child& intern(const std::string& name, const std::string& help, Type type,
                const Labels& labels);
  /// The family table, copied under mu_: renders read metric values
  /// through its stable pointers with the lock released, so a scrape never
  /// holds the lock a registration needs for longer than the copy.
  std::map<std::string, Family> snapshot() const;

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
  // Deques give stable addresses for handed-out references.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

}  // namespace rdcn::obs

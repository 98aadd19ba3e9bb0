// rdcn: admission-control primitives for the serving daemon.
//
// The building blocks of multi-tenant admission: per-client rate limits
// and quotas, a fair queue charged in scenario::estimate_cost units,
// brownout shedding and drain-rate retry hints.  serve::Lifecycle
// (serve/lifecycle.hpp) wires them together; every type here is
// externally synchronized and testable without sockets.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rdcn::serve {

/// True for names safe on the wire and in journal records: 1–64 chars
/// from [A-Za-z0-9._-] (no spaces — client names embed in space-separated
/// protocol lines and journal payloads).
bool is_valid_client_name(std::string_view name);

/// Admission-rate limiter over the caller's monotonic clock.  rate <= 0
/// means unlimited (try_take always succeeds).  Externally synchronized.
class TokenBucket {
 public:
  TokenBucket(double rate_per_s, double burst)
      : rate_(rate_per_s), burst_(std::max(1.0, burst)), tokens_(burst_) {}

  bool unlimited() const noexcept { return rate_ <= 0; }

  /// Consumes one token when available.  On refusal, `retry_ms` (if
  /// non-null) gets the milliseconds until the bucket will hold a full
  /// token — an honest hint, not a guess.
  bool try_take(std::uint64_t now_ns, std::uint32_t* retry_ms = nullptr);

  /// Current token count after refilling to `now_ns` (test hook).
  double tokens_at(std::uint64_t now_ns);

 private:
  void refill(std::uint64_t now_ns);

  double rate_;
  double burst_;
  double tokens_;
  std::uint64_t last_ns_ = 0;
};

/// One client's quota. Zero fields mean "unlimited" (burst 0 derives
/// max(1, 2·rps) so a configured rate always allows a small burst).
struct QuotaSpec {
  double rps = 0;
  double burst = 0;
  std::size_t concurrent = 0;

  double effective_burst() const noexcept {
    return burst > 0 ? burst : std::max(1.0, 2.0 * rps);
  }
};

/// Immutable per-client quota configuration: a default row plus named
/// overrides.  Built once at daemon start; lookups after that are
/// read-only.
class QuotaTable {
 public:
  QuotaTable() = default;
  explicit QuotaTable(QuotaSpec default_quota)
      : default_(std::move(default_quota)) {}

  void set_override(const std::string& client, QuotaSpec quota) {
    overrides_[client] = quota;
  }

  const QuotaSpec& lookup(const std::string& client) const {
    const auto it = overrides_.find(client);
    return it != overrides_.end() ? it->second : default_;
  }

  /// Parses quota-file text.  One client per line:
  ///
  ///   # comment
  ///   default rps=2 burst=4 concurrent=8
  ///   alice   rps=100 concurrent=32
  ///
  /// `default` (or `*`) replaces the fallback row.  Throws SpecError
  /// with a line number on malformed input.  `defaults` seeds the
  /// fallback row (the daemon's --quota-* flags).
  static QuotaTable parse_text(const std::string& text,
                               const QuotaSpec& defaults);
  /// parse_text over a file's contents; throws SpecError when unreadable.
  static QuotaTable parse_file(const std::string& path,
                               const QuotaSpec& defaults);

 private:
  QuotaSpec default_;
  std::map<std::string, QuotaSpec> overrides_;
};

/// Deficit round-robin queue across client lanes, charged in cost units,
/// so many small scenarios interleave with one giant matrix instead of
/// queueing behind it.  Backlogged lanes sit in a rotation; each visit
/// earns `quantum` credit, an item pops when its lane's credit covers its
/// cost, and an emptied lane forfeits leftover credit (classic DRR — idle
/// clients bank nothing).  A full no-progress round advances every
/// deficit in one step, so pop() is O(active clients).  Externally
/// synchronized, like std::deque.
template <typename T>
class DrrQueue {
 public:
  explicit DrrQueue(std::uint64_t quantum)
      : quantum_(std::max<std::uint64_t>(1, quantum)) {}

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  void push(const std::string& client, std::uint64_t cost, T item) {
    Lane& lane = lanes_[client];
    if (lane.items.empty()) round_.push_back(client);
    lane.items.emplace_back(std::max<std::uint64_t>(1, cost),
                            std::move(item));
    ++size_;
  }

  /// Pops the next item under DRR order.  False when empty.
  bool pop(T* out) {
    if (size_ == 0) return false;
    std::size_t since_pop = 0;  // lanes visited with no pop
    while (true) {
      if (cursor_ >= round_.size()) cursor_ = 0;
      Lane& lane = lanes_.find(round_[cursor_])->second;
      // One quantum per *visit*, not per pop: a lane drains its earned
      // deficit across consecutive pop() calls, then yields the cursor.
      // Granting on every pop would let any lane whose head fits one
      // quantum hold the cursor forever — FIFO in disguise.
      if (!granted_) {
        lane.deficit += quantum_;
        granted_ = true;
      }
      const std::uint64_t head = lane.items.front().first;
      if (head > lane.deficit) {
        // Visit over; the lane keeps its deficit for the next round.
        ++cursor_;
        granted_ = false;
        if (++since_pop >= round_.size()) {
          // A full round moved nothing: every head still exceeds its
          // deficit.  Grant the remaining rounds-to-first-pop in one
          // step so a giant head costs O(clients), not O(cost).
          std::uint64_t rounds = UINT64_MAX;
          for (const std::string& name : round_) {
            const Lane& l = lanes_.find(name)->second;
            const std::uint64_t need = l.items.front().first - l.deficit;
            rounds = std::min(rounds, (need + quantum_ - 1) / quantum_);
          }
          if (rounds > 1)
            for (const std::string& name : round_)
              lanes_.find(name)->second.deficit += (rounds - 1) * quantum_;
          since_pop = 0;
        }
        continue;
      }
      *out = std::move(lane.items.front().second);
      lane.deficit -= head;
      lane.items.pop_front();
      --size_;
      if (lane.items.empty()) leave(cursor_);
      return true;
    }
  }

  /// Removes `item` from `client`'s lane (a queued run that ended before
  /// an executor took it).  An emptied lane leaves the rotation and
  /// forfeits its credit, as in pop().  False when absent.
  bool erase(const std::string& client, const T& item) {
    const auto lane = lanes_.find(client);
    if (lane == lanes_.end()) return false;
    auto& items = lane->second.items;
    const auto it = std::find_if(items.begin(), items.end(), [&](auto& e) {
      return e.second == item;
    });
    if (it == items.end()) return false;
    items.erase(it);
    --size_;
    if (items.empty())
      leave(static_cast<std::size_t>(
          std::find(round_.begin(), round_.end(), client) - round_.begin()));
    return true;
  }

 private:
  /// An emptied lane forfeits its credit and leaves the rotation; the
  /// cursor keeps addressing the lane it did (the next one, if it left).
  void leave(std::size_t at) {
    lanes_.erase(round_[at]);
    round_.erase(round_.begin() + static_cast<std::ptrdiff_t>(at));
    if (at < cursor_)
      --cursor_;
    else if (at == cursor_)
      granted_ = false;
  }

  struct Lane {
    std::deque<std::pair<std::uint64_t, T>> items;  ///< (cost, item)
    std::uint64_t deficit = 0;
  };
  std::map<std::string, Lane> lanes_;  ///< backlogged lanes only
  std::vector<std::string> round_;     ///< rotation order over lanes_
  std::size_t cursor_ = 0;
  bool granted_ = false;  ///< cursor lane already earned this visit's quantum
  std::uint64_t quantum_;
  std::size_t size_ = 0;
};

/// Hysteretic brownout levels from queue depth and resident-set size.
/// Level L sheds admissions with priority < L (priority ∈ [0,2], so
/// level 2 still admits priority-2 traffic until the queue bound itself
/// refuses).  Entry thresholds exceed exit thresholds; a daemon hovering
/// at the boundary latches rather than flaps.
class Brownout {
 public:
  Brownout(std::size_t queue_limit, std::uint64_t max_rss_bytes)
      : queue_limit_(queue_limit), max_rss_(max_rss_bytes) {}

  /// Re-evaluates the level.  rss_bytes 0 (or an unset watermark)
  /// disables the RSS leg.  Enter L1 at queue ≥ 1/2 or RSS ≥ 0.80·max;
  /// enter L2 at queue ≥ 7/8 or RSS ≥ 0.95·max; exit L2→L1 below
  /// queue 1/2 and RSS 0.85·max; exit L1→L0 below queue 1/4 and
  /// RSS 0.70·max.
  int update(std::size_t queued, std::uint64_t rss_bytes);

  int level() const noexcept { return level_; }

 private:
  std::size_t queue_limit_;
  std::uint64_t max_rss_;
  int level_ = 0;
};

/// EWMA of completed-run durations → honest REJECT retry hints: with Q
/// runs queued and E executors, a slot frees in about ewma·(Q+1)/E.
/// Externally synchronized.
class DrainEstimator {
 public:
  void observe_run_ns(std::uint64_t ns) {
    // alpha = 1/5: a few runs settle the estimate, one outlier doesn't
    // own it.
    ewma_ns_ = ewma_ns_ == 0 ? ns : (ns + 4 * ewma_ns_) / 5;
  }

  std::uint64_t ewma_ns() const noexcept { return ewma_ns_; }

  /// Suggested retry delay.  Before any observation the configured
  /// `fallback_ms` stands in; afterwards the hint is clamped to
  /// [1, 60000] ms so a pathological EWMA can't tell clients "never".
  std::uint32_t retry_ms(std::size_t queued, std::size_t executors,
                         std::uint32_t fallback_ms) const;

 private:
  std::uint64_t ewma_ns_ = 0;
};

/// Resident-set size of this process in bytes (/proc/self/status VmRSS).
/// 0 when the proc interface is unavailable (non-Linux) — callers treat
/// that as "watermark disabled", never as pressure.
std::uint64_t read_rss_bytes();

}  // namespace rdcn::serve

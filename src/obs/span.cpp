#include "obs/span.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <ostream>

namespace rdcn::obs {

namespace detail {

std::atomic<bool> g_tracing{false};

struct TraceNode {
  TraceNode(std::string n, TraceNode* p) : name(std::move(n)), parent(p) {}
  const std::string name;
  TraceNode* const parent;
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_ns{0};
  /// Newest child first.  A child is linked in under trace_mu() and
  /// published by the release store into its parent's `first_child`;
  /// `next_sibling` never changes after that.
  std::atomic<TraceNode*> first_child{nullptr};
  TraceNode* next_sibling = nullptr;

  TraceNode* find_child(const char* child_name) const {
    for (TraceNode* c = first_child.load(std::memory_order_acquire);
         c != nullptr; c = c->next_sibling)
      if (c->name == child_name) return c;
    return nullptr;
  }
};

namespace {

std::mutex& trace_mu() {
  static std::mutex mu;
  return mu;
}

/// The tree's root.  Leaked, like every node under it, so the tree stays
/// valid for a thread that records during exit, and reachable for
/// LeakSanitizer's exit check.
TraceNode& root() {
  static auto* const node = new TraceNode("", nullptr);
  return *node;
}

thread_local TraceNode* t_current = nullptr;  ///< nullptr = the root

}  // namespace

TraceNode* span_enter(const char* name) {
  TraceNode* parent = t_current != nullptr ? t_current : &root();
  TraceNode* node = parent->find_child(name);
  if (node == nullptr) {
    const std::lock_guard<std::mutex> lock(trace_mu());
    node = parent->find_child(name);  // another thread may have added it
    if (node == nullptr) {
      node = new TraceNode(name, parent);
      node->next_sibling = parent->first_child.load(std::memory_order_relaxed);
      parent->first_child.store(node, std::memory_order_release);
    }
  }
  t_current = node;
  return node;
}

void span_exit(TraceNode* node, std::uint64_t elapsed_ns) {
  node->count.fetch_add(1, std::memory_order_relaxed);
  node->total_ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
  t_current = node->parent;
}

}  // namespace detail

void set_tracing(bool on) {
  detail::g_tracing.store(on, std::memory_order_relaxed);
}

SpanContext current_span() noexcept { return detail::t_current; }

SpanParent::SpanParent(SpanContext parent) noexcept
    : saved_(detail::t_current) {
  detail::t_current = parent;
}

SpanParent::~SpanParent() { detail::t_current = saved_; }

namespace {

/// Appends `node`'s subtree, children in name order, pre-order.
void flatten(const detail::TraceNode& node, const std::string& prefix,
             int depth, std::vector<PhaseTotal>& out) {
  std::vector<const detail::TraceNode*> children;
  for (const detail::TraceNode* c =
           node.first_child.load(std::memory_order_acquire);
       c != nullptr; c = c->next_sibling)
    children.push_back(c);
  std::sort(children.begin(), children.end(),
            [](const detail::TraceNode* a, const detail::TraceNode* b) {
              return a->name < b->name;
            });
  for (const detail::TraceNode* child : children) {
    PhaseTotal row;
    row.name = child->name;
    row.path = prefix.empty() ? child->name : prefix + "/" + child->name;
    row.depth = depth;
    row.count = child->count.load(std::memory_order_relaxed);
    row.total_ns = child->total_ns.load(std::memory_order_relaxed);
    // Keep a copy: recursing grows `out`, which may reallocate and would
    // invalidate a reference into it.
    const std::string path = row.path;
    out.push_back(std::move(row));
    flatten(*child, path, depth + 1, out);
  }
}

void reset_node(detail::TraceNode& node) {
  node.count.store(0, std::memory_order_relaxed);
  node.total_ns.store(0, std::memory_order_relaxed);
  for (detail::TraceNode* c = node.first_child.load(std::memory_order_acquire);
       c != nullptr; c = c->next_sibling)
    reset_node(*c);
}

}  // namespace

std::vector<PhaseTotal> collect_phases() {
  std::vector<PhaseTotal> out;
  flatten(detail::root(), "", 0, out);
  return out;
}

std::uint64_t phase_total_ns(const std::vector<PhaseTotal>& phases,
                             const std::string& name) {
  std::uint64_t sum = 0;
  for (const PhaseTotal& phase : phases)
    if (phase.name == name) sum += phase.total_ns;
  return sum;
}

void reset_traces() { reset_node(detail::root()); }

std::string trace_json() {
  // Pre-order rows nest by depth: a deeper row opens its parent's
  // "children" array, a shallower one closes one array per level.
  const std::vector<PhaseTotal> rows = collect_phases();
  std::string out = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PhaseTotal& row = rows[i];
    if (i > 0) {
      if (row.depth > rows[i - 1].depth) {
        out += ",\"children\":[";
      } else {
        out += "}";
        for (int d = rows[i - 1].depth; d > row.depth; --d) out += "]}";
        out += ",";
      }
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", row.total_ns * 1e-9);
    out += "{\"name\":\"" + row.name + "\"";
    out += ",\"count\":" + std::to_string(row.count);
    out += ",\"total_seconds\":";
    out += buf;
  }
  if (!rows.empty()) {
    out += "}";
    for (int d = rows.back().depth; d > 0; --d) out += "]}";
  }
  out += "]";
  return out;
}

void write_profile_report(std::ostream& out) {
  // Seconds, calls and % of parent; total_ns[d] is the latest row at
  // depth d, so a row's parent is total_ns[depth - 1].
  std::vector<std::uint64_t> total_ns;
  out << "phase                                   total        calls  of parent\n";
  for (const PhaseTotal& row : collect_phases()) {
    total_ns.resize(row.depth + 1);
    total_ns[row.depth] = row.total_ns;
    const std::uint64_t parent_ns = row.depth == 0 ? 0 : total_ns[row.depth - 1];
    const double pct = parent_ns == 0
                           ? 100.0
                           : 100.0 * static_cast<double>(row.total_ns) /
                                 static_cast<double>(parent_ns);
    char line[256];
    std::snprintf(line, sizeof(line), "%*s%-*s %10.6f s  x%-8llu %5.1f%%",
                  2 * row.depth, "", std::max(1, 34 - 2 * row.depth),
                  row.name.c_str(), row.total_ns * 1e-9,
                  static_cast<unsigned long long>(row.count), pct);
    out << line << "\n";
  }
}

}  // namespace rdcn::obs

#include "scenario/registry.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "scenario/builtins.hpp"

namespace rdcn::scenario {

namespace {

/// Classic Levenshtein edit distance (names are short; O(n·m) is fine).
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      const std::size_t next =
          std::min({row[j] + 1, row[j - 1] + 1, diagonal + cost});
      diagonal = row[j];
      row[j] = next;
    }
  }
  return row[b.size()];
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) out += ", ";
    out += item;
  }
  return out;
}

}  // namespace

std::string nearest_name(const std::string& name,
                         const std::vector<std::string>& candidates) {
  std::string best;
  std::size_t best_distance = 4;  // farther than 3 edits is not a typo
  for (const std::string& candidate : candidates) {
    const std::size_t d = edit_distance(name, candidate);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  return best;
}

template <typename Entry>
void Registry<Entry>::add(const std::string& name, Entry entry) {
  const bool inserted = entries_.emplace(name, std::move(entry)).second;
  RDCN_ASSERT_MSG(inserted, "duplicate registry name");
}

template <typename Entry>
const Entry* Registry<Entry>::find(const std::string& name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

template <typename Entry>
const Entry& Registry<Entry>::at(const std::string& name) const {
  const Entry* entry = find(name);
  if (entry != nullptr) return *entry;
  std::string msg = "unknown " + kind_ + " '" + name + "'";
  const std::string suggestion = nearest_name(name, names());
  if (!suggestion.empty()) msg += " (did you mean '" + suggestion + "'?)";
  msg += "; known: " + join(names());
  throw SpecError(msg);
}

template <typename Entry>
void Registry<Entry>::validate(const Spec& spec) const {
  const Entry& entry = at(spec.name);
  std::vector<std::string> known;
  known.reserve(entry.params.size());
  for (const ParamDoc& doc : entry.params) known.push_back(doc.key);
  for (const std::string& key : spec.params.keys()) {
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    std::string msg =
        kind_ + " '" + spec.name + "': unknown parameter '" + key + "'";
    const std::string suggestion = nearest_name(key, known);
    if (!suggestion.empty()) msg += " (did you mean '" + suggestion + "'?)";
    if (!known.empty()) msg += "; known: " + join(known);
    else msg += "; '" + spec.name + "' takes no parameters";
    throw SpecError(msg);
  }
}

template <typename Entry>
std::vector<std::string> Registry<Entry>::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;  // std::map iterates sorted
}

template class Registry<AlgorithmEntry>;
template class Registry<TopologyEntry>;
template class Registry<WorkloadEntry>;

AlgorithmRegistry& AlgorithmRegistry::instance() {
  static AlgorithmRegistry* registry = [] {
    auto* r = new AlgorithmRegistry();
    register_builtin_algorithms(*r);
    return r;
  }();
  return *registry;
}

TopologyRegistry& TopologyRegistry::instance() {
  static TopologyRegistry* registry = [] {
    auto* r = new TopologyRegistry();
    register_builtin_topologies(*r);
    return r;
  }();
  return *registry;
}

WorkloadRegistry& WorkloadRegistry::instance() {
  static WorkloadRegistry* registry = [] {
    auto* r = new WorkloadRegistry();
    register_builtin_workloads(*r);
    return r;
  }();
  return *registry;
}

std::unique_ptr<core::OnlineBMatcher> AlgorithmRegistry::make(
    const Spec& spec, const core::Instance& instance,
    const trace::Trace* full_trace, std::uint64_t seed) const {
  validate(spec);
  const AlgorithmEntry& entry = at(spec.name);
  if (entry.needs_full_trace && full_trace == nullptr)
    throw SpecError("algorithm '" + spec.name +
                    "' is offline and requires the full trace");
  // Private copy so consumption tracking is per-build (and thread-safe when
  // one Spec fans out over parallel trials).
  ParamMap params = spec.params;
  params.reset_consumption();
  auto matcher = entry.build(instance, params, full_trace, seed);
  params.require_all_consumed("algorithm '" + spec.name + "'");
  return matcher;
}

net::Topology TopologyRegistry::make(const Spec& spec, std::size_t racks,
                                     Xoshiro256& rng) const {
  validate(spec);
  const TopologyEntry& entry = at(spec.name);
  ParamMap params = spec.params;
  params.reset_consumption();
  net::Topology topology = entry.build(racks, params, rng);
  params.require_all_consumed("topology '" + spec.name + "'");
  return topology;
}

std::unique_ptr<trace::TraceStream> WorkloadRegistry::make_stream(
    const Spec& spec, std::size_t racks, std::size_t requests,
    const Xoshiro256& rng) const {
  validate(spec);
  const WorkloadEntry& entry = at(spec.name);
  ParamMap params = spec.params;
  params.reset_consumption();
  std::unique_ptr<trace::TraceStream> stream =
      entry.build(racks, requests, params, rng);
  params.require_all_consumed("workload '" + spec.name + "'");
  return stream;
}

trace::Trace WorkloadRegistry::make(const Spec& spec, std::size_t racks,
                                    std::size_t requests,
                                    const Xoshiro256& rng) const {
  return trace::materialize(*make_stream(spec, racks, requests, rng));
}

std::unique_ptr<core::OnlineBMatcher> make_algorithm(
    const std::string& spec, const core::Instance& instance,
    const trace::Trace* full_trace, std::uint64_t seed) {
  return AlgorithmRegistry::instance().make(Spec::parse(spec), instance,
                                            full_trace, seed);
}

net::Topology make_topology(const std::string& spec, std::size_t racks,
                            Xoshiro256& rng) {
  return TopologyRegistry::instance().make(Spec::parse(spec), racks, rng);
}

trace::Trace make_workload(const std::string& spec, std::size_t racks,
                           std::size_t requests, const Xoshiro256& rng) {
  return WorkloadRegistry::instance().make(Spec::parse(spec), racks, requests,
                                           rng);
}

std::vector<Spec> parse_algorithm_list(const std::string& text) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::instance();
  std::vector<Spec> out;
  std::string pending;  // current spec text, grown segment by segment
  auto flush = [&] {
    if (!pending.empty()) out.push_back(Spec::parse(pending));
    pending.clear();
  };
  for (const std::string& raw : rdcn::detail::split(text, ',')) {
    const std::string segment = rdcn::detail::trim(raw);
    if (segment.empty()) continue;
    const std::string head = segment.substr(0, segment.find(':'));
    if (pending.empty() || registry.find(head) != nullptr) {
      flush();
      pending = segment;
    } else {
      // Not an algorithm name: this segment is another parameter of the
      // spec under construction ("r_bma:engine=lru,eager").
      pending += pending.find(':') == std::string::npos ? ':' : ',';
      pending += segment;
    }
  }
  flush();
  return out;
}

namespace {

template <typename Reg>
void append_catalog(std::string& out, const std::string& heading,
                    const Reg& registry) {
  out += heading;
  out += "\n";
  for (const std::string& name : registry.names()) {
    const auto* entry = registry.find(name);
    out += "  " + name;
    out.append(name.size() < 18 ? 18 - name.size() : 1, ' ');
    out += entry->summary + "\n";
    for (const ParamDoc& p : entry->params) {
      out += "      " + p.key;
      if (!p.default_value.empty()) out += "=" + p.default_value;
      const std::size_t written = 6 + p.key.size() +
                                  (p.default_value.empty()
                                       ? 0
                                       : 1 + p.default_value.size());
      out.append(written < 30 ? 30 - written : 1, ' ');
      out += p.doc + "\n";
    }
  }
}

}  // namespace

std::string catalog_text() {
  std::string out;
  append_catalog(out, "algorithms (--algorithms=name[:k=v,...],...):",
                 AlgorithmRegistry::instance());
  out += "\n";
  append_catalog(out, "topologies (--topology=name[:k=v,...]):",
                 TopologyRegistry::instance());
  out += "\n";
  append_catalog(out, "workloads (--workload=name[:k=v,...]):",
                 WorkloadRegistry::instance());
  return out;
}

namespace detail {

AlgorithmRegistrar::AlgorithmRegistrar(const std::string& name,
                                       AlgorithmEntry entry) {
  AlgorithmRegistry::instance().add(name, std::move(entry));
}

TopologyRegistrar::TopologyRegistrar(const std::string& name,
                                     TopologyEntry entry) {
  TopologyRegistry::instance().add(name, std::move(entry));
}

WorkloadRegistrar::WorkloadRegistrar(const std::string& name,
                                     WorkloadEntry entry) {
  WorkloadRegistry::instance().add(name, std::move(entry));
}

}  // namespace detail

}  // namespace rdcn::scenario

// rdcn: string-keyed factory for paging engines, so benches/examples can
// select the engine inside R-BMA from the command line.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "paging/paging_algorithm.hpp"

namespace rdcn::paging {

enum class EngineKind {
  kMarking,
  kLru,
  kFifo,
  kClock,
  kRandom,
  kFlushWhenFull,
  kLfu,
  kArc,
};

/// Parses "marking" | "lru" | "fifo" | "clock" | "random" |
/// "flush_when_full" | "lfu" | "arc"; returns false on unknown names.
/// `out` may be null to just probe.
bool try_parse_engine(const std::string& name, EngineKind* out);

/// Every engine name, in declaration order — the single source for help
/// text and validation lists.
const std::vector<std::string>& engine_names();

std::string engine_name(EngineKind kind);

/// Instantiates an engine with the given capacity.  `rng` seeds randomized
/// engines (ignored by deterministic ones).
std::unique_ptr<PagingAlgorithm> make_engine(EngineKind kind,
                                             std::size_t capacity,
                                             Xoshiro256 rng);

}  // namespace rdcn::paging

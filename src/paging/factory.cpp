#include "paging/factory.hpp"

#include <iterator>

#include "common/assert.hpp"
#include "paging/arc.hpp"
#include "paging/clock.hpp"
#include "paging/lfu.hpp"
#include "paging/fifo.hpp"
#include "paging/flush_when_full.hpp"
#include "paging/lru.hpp"
#include "paging/marking.hpp"
#include "paging/random_eviction.hpp"

namespace rdcn::paging {

namespace {

constexpr EngineKind kAllEngines[] = {
    EngineKind::kMarking, EngineKind::kLru,           EngineKind::kFifo,
    EngineKind::kClock,   EngineKind::kRandom,        EngineKind::kFlushWhenFull,
    EngineKind::kLfu,     EngineKind::kArc,
};
// A new EngineKind must be added to kAllEngines or it silently disappears
// from engine_names()/try_parse_engine (and thus the generated docs).
static_assert(std::size(kAllEngines) ==
              static_cast<std::size_t>(EngineKind::kArc) + 1);

}  // namespace

bool try_parse_engine(const std::string& name, EngineKind* out) {
  for (const EngineKind kind : kAllEngines) {
    if (engine_name(kind) == name) {
      if (out != nullptr) *out = kind;
      return true;
    }
  }
  return false;
}

const std::vector<std::string>& engine_names() {
  static const std::vector<std::string>* names = [] {
    auto* out = new std::vector<std::string>();
    for (const EngineKind kind : kAllEngines)
      out->push_back(engine_name(kind));
    return out;
  }();
  return *names;
}

std::string engine_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kMarking: return "marking";
    case EngineKind::kLru: return "lru";
    case EngineKind::kFifo: return "fifo";
    case EngineKind::kClock: return "clock";
    case EngineKind::kRandom: return "random";
    case EngineKind::kFlushWhenFull: return "flush_when_full";
    case EngineKind::kLfu: return "lfu";
    case EngineKind::kArc: return "arc";
  }
  return "unknown";
}

std::unique_ptr<PagingAlgorithm> make_engine(EngineKind kind,
                                             std::size_t capacity,
                                             Xoshiro256 rng) {
  switch (kind) {
    case EngineKind::kMarking:
      return std::make_unique<Marking>(capacity, rng);
    case EngineKind::kLru:
      return std::make_unique<Lru>(capacity);
    case EngineKind::kFifo:
      return std::make_unique<Fifo>(capacity);
    case EngineKind::kClock:
      return std::make_unique<ClockPaging>(capacity);
    case EngineKind::kRandom:
      return std::make_unique<RandomEviction>(capacity, rng);
    case EngineKind::kFlushWhenFull:
      return std::make_unique<FlushWhenFull>(capacity);
    case EngineKind::kLfu:
      return std::make_unique<Lfu>(capacity);
    case EngineKind::kArc:
      return std::make_unique<Arc>(capacity);
  }
  RDCN_ASSERT_MSG(false, "unreachable");
  return nullptr;
}

}  // namespace rdcn::paging

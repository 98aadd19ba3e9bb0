#include "trace/trace.hpp"

#include "common/flat_hash.hpp"

namespace rdcn::trace {

Trace Trace::prefix(std::size_t n) const {
  Trace t(num_racks_, name_ + "_prefix");
  const std::size_t m = n < requests_.size() ? n : requests_.size();
  t.requests_.assign(requests_.begin(),
                     requests_.begin() + static_cast<std::ptrdiff_t>(m));
  return t;
}

std::size_t Trace::num_distinct_pairs() const {
  FlatSet seen(requests_.size());
  for (const Request& r : requests_) seen.insert(pair_key(r));
  return seen.size();
}

}  // namespace rdcn::trace

// rdcn: a trace is an ordered request sequence over a fixed rack universe —
// the input σ of the online problem.
//
// Storage is one contiguous array of Request (8 bytes each): the layout
// every consumer wants.  The replay pipeline consumes traces in fixed-size
// chunks (sim::kServeChunk), and gather() copies one chunk into a
// caller-provided buffer — the hand-off format of
// core::OnlineBMatcher::serve_batch.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/request.hpp"

namespace rdcn::trace {

class Trace {
 public:
  Trace() = default;
  Trace(std::size_t num_racks, std::string name)
      : num_racks_(num_racks), name_(std::move(name)) {}

  std::size_t num_racks() const noexcept { return num_racks_; }
  const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  std::size_t size() const noexcept { return requests_.size(); }
  bool empty() const noexcept { return requests_.empty(); }

  const Request& operator[](std::size_t i) const noexcept {
    RDCN_DCHECK(i < requests_.size());
    return requests_[i];
  }

  void push_back(Request r) {
    RDCN_DCHECK(r.u < num_racks_ && r.v < num_racks_ && r.u != r.v);
    requests_.push_back(r);
  }

  void reserve(std::size_t n) { requests_.reserve(n); }

  auto begin() const noexcept { return requests_.begin(); }
  auto end() const noexcept { return requests_.end(); }

  /// Copies requests [offset, offset + count) into `out` — the chunk
  /// hand-off of the batched serve pipeline.
  void gather(std::size_t offset, std::size_t count, Request* out) const {
    RDCN_DCHECK(offset + count <= requests_.size());
    std::copy_n(requests_.data() + offset, count, out);
  }

  /// Truncated copy of the first `n` requests (for prefix experiments).
  Trace prefix(std::size_t n) const;

  /// Number of distinct rack pairs appearing in the trace.
  std::size_t num_distinct_pairs() const;

 private:
  std::size_t num_racks_ = 0;
  std::string name_;
  std::vector<Request> requests_;
};

}  // namespace rdcn::trace

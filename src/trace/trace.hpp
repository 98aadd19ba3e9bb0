// rdcn: a trace is an ordered request sequence over a fixed rack universe —
// the input σ of the online problem.
//
// Storage is one contiguous array of Request (8 bytes each): the layout
// every consumer wants.  The replay pipeline serves spans of that array in
// place (trace::SharedTrace), in fixed-size chunks (sim::kServeChunk) —
// the hand-off format of core::OnlineBMatcher::serve_batch.  A producer
// that knows the length up front sizes the array once, uninitialized, and
// writes it in place.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "trace/request.hpp"

namespace rdcn::trace {

namespace detail {

/// std::allocator whose value-less construct() default-initializes, so a
/// resize leaves trivial elements (Request) uninitialized: sizing a trace
/// for a producer costs no zero-fill pass over it.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

}  // namespace detail

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

  /// Resizes to `n` requests, the new ones uninitialized, and returns the
  /// array: for a producer that writes every slot before anyone reads it.
  Request* resize_uninitialized(std::size_t n) {
    requests_.resize(n);
    return requests_.data();
  }

  auto begin() const noexcept { return requests_.begin(); }
  auto end() const noexcept { return requests_.end(); }
  const Request* data() const noexcept { return requests_.data(); }

  /// Truncated copy of the first `n` requests (for prefix experiments).
  Trace prefix(std::size_t n) const;

 private:
  std::size_t num_racks_ = 0;
  std::string name_;
  std::vector<Request, detail::DefaultInitAllocator<Request>> requests_;
};

}  // namespace rdcn::trace

#include "trace/shared_trace.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"

namespace rdcn::trace {

SharedTrace::SharedTrace(TraceStream& source, Keep keep)
    : source_(&source),
      owned_(source.num_racks(), source.name()),
      trace_(&owned_),
      total_(source.total() - source.produced()),
      window_(keep == Keep::kWhole ? total_
                                   : std::min(kProduceBlock, total_)),
      buffer_(owned_.resize_uninitialized(window_)),
      data_(buffer_),
      published_(0) {}

SharedTrace::SharedTrace(const Trace& complete)
    : trace_(&complete),
      total_(complete.size()),
      window_(total_),
      data_(complete.data()),
      published_(total_) {}

std::span<const Request> SharedTrace::requests(std::size_t begin,
                                               std::size_t n,
                                               const CancelToken& cancel) {
  RDCN_DCHECK(begin + n <= total_);
  if (n == 0) return {};
  if (published_.load(std::memory_order_acquire) < begin + n)
    produce(begin + n, cancel);
  // Inside the window: under Keep::kOneBlock, the block last produced.
  RDCN_DCHECK(begin % window_ + n <= window_ &&
              begin / window_ ==
                  (published_.load(std::memory_order_relaxed) - 1) / window_);
  return {data_ + begin % window_, n};
}

void SharedTrace::produce(std::size_t end, const CancelToken& cancel) {
  // One block per hold of the lock, so a reader that needs a block this
  // producer has already published gets it without waiting for the rest.
  while (published_.load(std::memory_order_acquire) < end) {
    const std::lock_guard<std::mutex> lock(mu_);
    const std::size_t done = published_.load(std::memory_order_relaxed);
    if (done >= end) break;
    if (error_) std::rethrow_exception(error_);
    if (cancel.cancelled())
      throw CancelledError("trace production stopped after " +
                           std::to_string(done) + " of " +
                           std::to_string(total_) + " requests");
    const std::size_t n = std::min(kProduceBlock, total_ - done);
    Request* block = buffer_ + done % window_;
    try {
      const std::size_t got = source_->next(block, n);
      RDCN_ASSERT_MSG(got == n, "trace stream ended before its total()");
    } catch (...) {
      error_ = std::current_exception();
      throw;
    }
    // Trace::push_back's check, per block (compiled out under NDEBUG).
    for (const Request* r = block; r != block + n; ++r)
      RDCN_DCHECK(r->u < num_racks() && r->v < num_racks() && r->u != r->v);
    published_.store(done + n, std::memory_order_release);
  }
}

const Trace& SharedTrace::complete(const CancelToken& cancel) {
  RDCN_ASSERT_MSG(keeps_whole(),
                  "a SharedTrace that keeps one block is never complete");
  (void)requests(0, total_, cancel);
  return *trace_;
}

void SharedTrace::rethrow_error() const {
  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    error = error_;
  }
  if (error) std::rethrow_exception(error);
}

Trace SharedTrace::take() && {
  RDCN_ASSERT_MSG(trace_ == &owned_, "take() needs a trace it owns");
  (void)complete();
  return std::move(owned_);
}

}  // namespace rdcn::trace

#include "trace/shared_trace.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"

namespace rdcn::trace {

class SharedTrace::Reader final : public TraceStream {
 public:
  explicit Reader(const SharedTrace& shared)
      : TraceStream(shared.trace_.num_racks(), shared.trace_.name(),
                    shared.total_),
        shared_(shared) {}

 protected:
  void produce(Request* out, std::size_t n) override {
    shared_.wait_for(produced() + n);
    shared_.trace_.gather(produced(), n, out);
  }

 private:
  const SharedTrace& shared_;
};

SharedTrace::SharedTrace(TraceStream& source)
    : source_(source),
      trace_(source.num_racks(), source.name()),
      total_(source.total() - source.produced()),
      data_(trace_.resize_uninitialized(total_)) {}

void SharedTrace::publish(std::size_t end, bool last) {
  {
    // Stored under the lock, so a reader that saw the old watermark is
    // already waiting when the notification comes.
    const std::lock_guard<std::mutex> lock(mu_);
    published_.store(end, std::memory_order_release);
    closed_ = closed_ || last;
  }
  published_cv_.notify_all();
}

void SharedTrace::fill(const CancelToken& cancel) noexcept {
  std::size_t done = 0;
  try {
    while (done < total_ && !cancel.cancelled()) {
      const std::size_t n = std::min(kProduceBlock, total_ - done);
      const std::size_t got = source_.next(data_ + done, n);
      RDCN_ASSERT_MSG(got == n, "trace stream ended before its total()");
      // Trace::push_back's check, per block (compiled out under NDEBUG).
      for (const Request* r = data_ + done; r != data_ + done + n; ++r)
        RDCN_DCHECK(r->u < trace_.num_racks() && r->v < trace_.num_racks() &&
                    r->u != r->v);
      done += n;
      if (done < total_) publish(done, /*last=*/false);
    }
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mu_);
    error_ = std::current_exception();
  }
  publish(done, /*last=*/true);
}

void SharedTrace::wait_for(std::size_t end) const {
  RDCN_DCHECK(end <= total_);
  if (published_.load(std::memory_order_acquire) >= end) return;
  std::unique_lock<std::mutex> lock(mu_);
  published_cv_.wait(lock, [&] {
    return closed_ || published_.load(std::memory_order_acquire) >= end;
  });
  const std::size_t published = published_.load(std::memory_order_acquire);
  if (published < end)
    throw CancelledError("trace production stopped after " +
                         std::to_string(published) + " of " +
                         std::to_string(total_) + " requests");
}

const Trace& SharedTrace::complete() const {
  wait_for(total_);
  return trace_;
}

std::unique_ptr<TraceStream> SharedTrace::reader() const {
  return std::make_unique<Reader>(*this);
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
  {
    const std::lock_guard<std::mutex> lock(mu_);
    RDCN_ASSERT_MSG(closed_, "SharedTrace::take() before fill() returned");
  }
  rethrow_error();
  (void)complete();
  return std::move(trace_);
}

}  // namespace rdcn::trace

// rdcn: one trace, filled by one producer while its readers replay it.
//
// Every task of a multi-task cell replays the same workload.  Instead of
// generating the whole trace before the first task starts, a SharedTrace
// sizes the trace to its source stream's length up front (uninitialized:
// no zero-fill pass) and one producer, fill(), writes it in place one
// kProduceBlock block at a time.  Each block is published behind a
// release/acquire watermark.  A reader() is a TraceStream that copies
// published blocks out and blocks only when the block it needs is not yet
// published, so a replay starts on the first block instead of after the
// last.  materialize() is the same fill on the calling thread, no readers.
//
// Stopping: fill() polls a CancelToken once per block and catches any
// exception the source throws.  Either way it closes the trace and wakes
// every waiting reader; a reader that needs a block that will never be
// published throws CancelledError, and rethrow_error() rethrows the
// source's own exception for whoever drives the fill.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>

#include "common/cancel.hpp"
#include "trace/trace.hpp"
#include "trace/trace_stream.hpp"

namespace rdcn::trace {

class SharedTrace {
 public:
  /// Borrows `source`, which must outlive fill(), and sizes the trace to
  /// the requests it has left (name and rack universe carried over).
  explicit SharedTrace(TraceStream& source);

  SharedTrace(const SharedTrace&) = delete;
  SharedTrace& operator=(const SharedTrace&) = delete;

  std::size_t total() const noexcept { return total_; }

  /// The producer: pulls the source into the trace block by block,
  /// publishing each, until the trace is full, `cancel` fires (polled
  /// before every block) or the source throws (the exception is kept for
  /// rethrow_error()).  Then it closes the trace and wakes every reader.
  /// Call at most once; never throws.
  void fill(const CancelToken& cancel = {}) noexcept;

  /// The whole trace, once its last block is published.  Throws
  /// CancelledError when the fill stopped before that.
  const Trace& complete() const;

  /// A fresh stream over the trace that waits for each block it pulls.
  /// The SharedTrace must outlive it.
  std::unique_ptr<TraceStream> reader() const;

  /// Rethrows the exception the source threw during fill(), if any.
  void rethrow_error() const;

  /// Hands the trace over after fill() returned: rethrows the source's
  /// exception, and throws CancelledError if the fill stopped short.
  Trace take() &&;

 private:
  class Reader;

  /// Publishes requests [0, end); `last` closes the trace.
  void publish(std::size_t end, bool last);
  /// Blocks until requests [0, end) are published.  Throws CancelledError
  /// when the fill closed the trace before publishing them.
  void wait_for(std::size_t end) const;

  TraceStream& source_;
  Trace trace_;
  std::size_t total_;
  Request* data_;  ///< trace_'s array, written only by fill()
  std::atomic<std::size_t> published_{0};
  mutable std::mutex mu_;
  mutable std::condition_variable published_cv_;
  bool closed_ = false;       ///< guarded by mu_
  std::exception_ptr error_;  ///< guarded by mu_
};

}  // namespace rdcn::trace

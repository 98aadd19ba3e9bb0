// rdcn: the one trace a replay reads, produced on demand by its readers.
//
// Every task of a cell replays the same workload.  A SharedTrace sizes an
// array for it up front (uninitialized: no zero-fill pass) and hands out
// spans of it in place.  Nobody fills it ahead of time: the first reader
// that needs a block that is not yet published produces it from the source
// stream on its own thread, one kProduceBlock block at a time under one
// mutex, and publishes it behind a release/acquire watermark.  A reader of
// a published block takes no lock; a reader that needs the block being
// produced blocks on the mutex until it is out.  So a replay starts on the
// first block instead of after the last, and a task only ever waits for a
// task that is producing the block it needs.
//
// What is kept: the whole trace (Keep::kWhole: any number of readers,
// complete() for an offline comparator, take() afterwards), or only the
// block last produced (Keep::kOneBlock: one reader that moves forward,
// constant memory however long the trace).  A SharedTrace over a
// complete Trace borrows it and produces nothing.
//
// Stopping: a producer checks its reader's CancelToken before every block
// and throws CancelledError once it fired.  An exception of the source is
// kept: the reader that hit it and every later reader that needs a
// missing block get it as itself, and so do take() and rethrow_error().
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <span>

#include "common/cancel.hpp"
#include "trace/trace.hpp"
#include "trace/trace_stream.hpp"

namespace rdcn::trace {

class SharedTrace {
 public:
  enum class Keep { kWhole, kOneBlock };

  /// Borrows `source`, which must outlive the SharedTrace, and sizes it to
  /// the requests the source has left (name and rack universe carried
  /// over).
  explicit SharedTrace(TraceStream& source, Keep keep = Keep::kWhole);
  /// Borrows a complete trace, which must outlive the SharedTrace.
  explicit SharedTrace(const Trace& complete);

  SharedTrace(const SharedTrace&) = delete;
  SharedTrace& operator=(const SharedTrace&) = delete;

  std::size_t total() const noexcept { return total_; }
  std::size_t num_racks() const noexcept { return trace_->num_racks(); }
  const std::string& name() const noexcept { return trace_->name(); }
  bool keeps_whole() const noexcept { return window_ == total_; }

  /// Requests [begin, begin + n), producing the blocks up to them that are
  /// not yet published.  Thread-safe.  Under Keep::kOneBlock the range
  /// must lie in one block, at or after the block last produced.
  std::span<const Request> requests(std::size_t begin, std::size_t n,
                                    const CancelToken& cancel = {});

  /// The whole trace, producing what is left (Keep::kWhole only).
  const Trace& complete(const CancelToken& cancel = {});

  /// Rethrows the exception the source threw, if it threw.
  void rethrow_error() const;

  /// Hands the whole trace over, producing what is left; rethrows the
  /// source's exception.  Only for a SharedTrace that owns its trace.
  Trace take() &&;

 private:
  /// Produces blocks until requests [0, end) are published.
  void produce(std::size_t end, const CancelToken& cancel);

  TraceStream* source_ = nullptr;  ///< null over a complete trace
  Trace owned_;
  const Trace* trace_;  ///< &owned_, or the borrowed complete trace
  std::size_t total_;
  std::size_t window_;        ///< request i lives at data_[i % window_]
  Request* buffer_ = nullptr;  ///< owned_'s array, written by produce()
  const Request* data_;
  std::atomic<std::size_t> published_;
  mutable std::mutex mu_;     ///< held while producing a block
  std::exception_ptr error_;  ///< guarded by mu_
};

}  // namespace rdcn::trace

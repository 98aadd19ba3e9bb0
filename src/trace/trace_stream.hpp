// rdcn: streaming trace production — requests in fixed-size chunks.
//
// A TraceStream is the one trace front end: instead of materializing a
// full Trace (8 bytes × requests) before the first request is served, a
// stream produces the next chunk on demand, so a replay's peak memory is
// one scratch chunk regardless of trace length.  Every generator in
// trace/generators.hpp (plus the Facebook/Microsoft cluster profiles) is a
// per-request emitter wrapped in an EmitterStream.  When many replays need
// the same requests, one producer fills a trace::SharedTrace from the
// stream in kProduceBlock blocks while its readers (streams too) replay
// the published blocks; materialize() is that fill run on the calling
// thread, for a caller that needs random access.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "trace/request.hpp"
#include "trace/trace.hpp"

namespace rdcn::trace {

/// Requests produced per pull from a stream: 32768 requests = 256 KiB.
/// Producing in blocks much larger than a serve chunk lets generation and
/// serving each run long enough to keep their own working sets hot; a
/// 20000-request daemon run produces its trace in one pull.  A replay
/// pulls one block at a time (sim::run_simulation), and a SharedTrace
/// publishes one at a time, so a reader waits on exactly one block.
inline constexpr std::size_t kProduceBlock = 1 << 15;

class TraceStream {
 public:
  TraceStream(std::size_t num_racks, std::string name, std::size_t total)
      : num_racks_(num_racks), name_(std::move(name)), total_(total) {}
  virtual ~TraceStream() = default;

  TraceStream(const TraceStream&) = delete;
  TraceStream& operator=(const TraceStream&) = delete;

  std::size_t num_racks() const noexcept { return num_racks_; }
  const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Total number of requests this stream will produce over its lifetime
  /// (σ is finite; the simulator uses this to clamp checkpoint grids the
  /// same way it clamps against Trace::size()).
  std::size_t total() const noexcept { return total_; }

  /// Requests handed out so far.
  std::size_t produced() const noexcept { return produced_; }

  /// Fills out[0, n) with the next requests, n = min(max, remaining);
  /// returns n (0 once exhausted).
  std::size_t next(Request* out, std::size_t max) {
    const std::size_t remaining = total_ - produced_;
    const std::size_t n = max < remaining ? max : remaining;
    if (n != 0) {
      produce(out, n);
      produced_ += n;
    }
    return n;
  }

 protected:
  /// Produces exactly `n` requests into out (n >= 1, already clamped).
  virtual void produce(Request* out, std::size_t n) = 0;

 private:
  std::size_t num_racks_;
  std::string name_;
  std::size_t total_;
  std::size_t produced_ = 0;
};

/// Stream view over a Trace (chunked copies of its request array).
class MaterializedStream final : public TraceStream {
 public:
  /// Borrows `trace`, which must outlive the stream.
  explicit MaterializedStream(const Trace& trace)
      : TraceStream(trace.num_racks(), trace.name(), trace.size()),
        trace_(&trace) {}

  /// Owns `trace` (e.g. an imported file no caller holds on to).
  explicit MaterializedStream(Trace&& trace)
      : TraceStream(trace.num_racks(), trace.name(), trace.size()),
        owned_(std::move(trace)),
        trace_(&owned_) {}

 protected:
  void produce(Request* out, std::size_t n) override {
    trace_->gather(produced(), n, out);
  }

 private:
  Trace owned_;
  const Trace* trace_;
};

/// Stream over a per-request emitter: owns a snapshot of the caller's RNG
/// and an `Emitter` constructed as Emitter(num_racks, args..., rng) that
/// draws from it.  The constructor performs the generator's setup draws,
/// and each step() returns the next request.
template <typename Emitter>
class EmitterStream final : public TraceStream {
 public:
  template <typename... Args>
  EmitterStream(std::size_t num_racks, std::string name, std::size_t total,
                const Xoshiro256& rng, Args&&... args)
      : TraceStream(num_racks, std::move(name), total),
        rng_(rng),  // declared before emitter_, which holds a reference
        emitter_(num_racks, std::forward<Args>(args)..., rng_) {}

 protected:
  void produce(Request* out, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) out[i] = emitter_.step();
  }

 private:
  Xoshiro256 rng_;
  Emitter emitter_;
};

/// Drains `stream` to exhaustion into a Trace (name and rack universe
/// carried over): SharedTrace's fill, run on the calling thread.  An
/// exception of the stream propagates.  The inverse of MaterializedStream.
Trace materialize(TraceStream& stream);

}  // namespace rdcn::trace

// rdcn: trace production — a workload's requests, in fixed-size blocks.
//
// A TraceStream is the producer interface: every generator in
// trace/generators.hpp (plus the Facebook/Microsoft cluster profiles) is a
// per-request emitter wrapped in an EmitterStream, and an imported file is
// a MaterializedStream.  Nothing replays a stream directly: a replay reads
// a trace::SharedTrace, whose readers pull the stream one kProduceBlock
// block at a time as they need it.  materialize() is a SharedTrace
// produced whole on the calling thread, for a caller that needs random
// access.
#pragma once

#include <algorithm>
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
/// 20000-request daemon run produces its trace in one pull.  A SharedTrace
/// produces and publishes one block at a time, and a replay reads up to
/// one block at a time (sim::run_simulation), so a reader waits for at
/// most the one block being produced.
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

/// Stream over a Trace it owns (e.g. an imported file no caller holds on
/// to): copies of its request array.
class MaterializedStream final : public TraceStream {
 public:
  explicit MaterializedStream(Trace&& trace)
      : TraceStream(trace.num_racks(), trace.name(), trace.size()),
        trace_(std::move(trace)) {}

 protected:
  void produce(Request* out, std::size_t n) override {
    std::copy_n(trace_.data() + produced(), n, out);
  }

 private:
  Trace trace_;
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
/// carried over): a SharedTrace produced whole on the calling thread.  An
/// exception of the stream propagates as itself.  The inverse of
/// MaterializedStream.
Trace materialize(TraceStream& stream);

}  // namespace rdcn::trace

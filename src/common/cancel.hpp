// rdcn: cooperative cancellation for long-running work.
//
// A CancelToken is a copyable handle onto one shared cancellation flag.
// The producer (a serving daemon, a driver reacting to a signal) keeps one
// copy and calls request_cancel(); consumers (the simulator's chunk loop,
// an experiment's tasks, a shared trace's producers) poll cancelled() at
// natural boundaries — a serve chunk, a task's start, a production block —
// so a cancelled run stops within one boundary without any forced
// unwinding.  Cancellation is cooperative
// and one-way: once requested it cannot be un-requested.
//
// The default-constructed token is *inert*: it is never cancelled and
// request_cancel() is a no-op.  This makes the token cheap to thread
// through APIs as a defaulted parameter — callers that don't cancel pay a
// null-pointer check per boundary.  Use CancelToken::make() to obtain a
// token that can actually fire.
#pragma once

#include <atomic>
#include <memory>
#include <stdexcept>

namespace rdcn {

/// Thrown by run loops when their token fires mid-run.  Deliberately NOT a
/// SpecError: cancellation is an outcome the caller asked for, not a
/// malformed input, and serving layers report the two differently.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(const std::string& message)
      : std::runtime_error(message) {}
};

class CancelToken {
 public:
  /// Inert token: cancelled() is always false, request_cancel() a no-op.
  CancelToken() = default;

  /// A live token backed by a fresh shared flag; all copies observe the
  /// same cancellation.
  static CancelToken make() {
    CancelToken t;
    t.flag_ = std::make_shared<std::atomic<bool>>(false);
    return t;
  }

  bool cancellable() const noexcept { return flag_ != nullptr; }

  bool cancelled() const noexcept {
    return flag_ != nullptr && flag_->load(std::memory_order_acquire);
  }

  void request_cancel() const noexcept {
    if (flag_ != nullptr) flag_->store(true, std::memory_order_release);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

}  // namespace rdcn

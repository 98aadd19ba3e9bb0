// rdcn: the persistent worker pool behind parallel_for.
//
// The experiment driver fans hundreds of independent trials out to every
// core; spawning and joining a fresh std::thread set per parallel_for call
// put thread start-up latency on the request path of every sweep.  This
// pool starts its workers exactly once (lazily, on first use) and reuses
// them for every subsequent parallel region — `threads_spawned()` stays
// constant for the lifetime of the process, which the thread-pool stress
// test pins down.
//
// Execution model: a blocking parallel-for.  The caller publishes a Job
// (an atomic cursor over [0, count)), participates in draining it, and
// blocks until every index completed.  Workers race on the cursor; there
// is no per-index queueing, no allocation, and no std::function — the body
// is a plain function pointer + context supplied by the templated
// parallel_for trampoline, so user lambdas are inlined into the trampoline.
//
// Concurrent run() calls from distinct caller threads are safe (jobs
// queue); nested run() from inside a worker executes inline on the calling
// worker to avoid self-deadlock.  Job bodies must not throw.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

namespace rdcn::sim {

class ThreadPool {
 public:
  /// Job body: invoked as body(ctx, i) for each index i.
  using Body = void (*)(void*, std::size_t);

  /// The process-wide pool (hardware-concurrency workers), started once on
  /// first use and reused by every parallel_for call.
  static ThreadPool& instance();

  /// `num_workers` 0 = hardware concurrency.
  explicit ThreadPool(std::size_t num_workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_workers() const noexcept { return workers_.size(); }

  /// Lifetime count of OS threads this pool ever spawned.  Equals
  /// num_workers() right after construction and never changes — the
  /// regression hook proving no thread is spawned per parallel region.
  std::uint64_t threads_spawned() const noexcept { return threads_spawned_; }

  /// Number of parallel jobs run() has completed (diagnostics).
  std::uint64_t jobs_completed() const noexcept;

  /// Blocking parallel-for: runs body(ctx, i) for i in [0, count) on up to
  /// `max_parallelism` threads (the caller participates and counts toward
  /// the limit).  Returns after every index completed.
  ///
  /// `cancel` (optional) is a cooperative cancellation flag polled before
  /// each index: once it reads true, remaining indices are claimed but NOT
  /// executed, so the job drains immediately and its worker slots free up.
  /// Indices already executing run to completion — the body itself decides
  /// whether to poll the same flag at finer granularity.  The flag must
  /// outlive the run() call.
  void run(std::size_t count, std::size_t max_parallelism, Body body,
           void* ctx, const std::atomic<bool>* cancel = nullptr);

  /// True iff the calling thread is a worker of *some* ThreadPool.
  static bool on_worker_thread() noexcept;

 private:
  struct Job;

  void worker_main();
  /// Scans the queue for a job with unclaimed indices and a free
  /// participation slot; claims one.  Requires mu_ held.
  Job* try_claim_locked();
  static void drain(Job& job);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job*> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
  std::uint64_t threads_spawned_ = 0;
  std::uint64_t jobs_completed_ = 0;
};

}  // namespace rdcn::sim

#include "sim/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "common/assert.hpp"
#include "common/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace rdcn::sim {

namespace {
thread_local bool t_on_pool_worker = false;

/// Pool metrics live in the process-wide registry: the pool is a
/// singleton, and test assertions use deltas, never absolute values.
struct PoolMetrics {
  obs::Gauge& workers;
  obs::Gauge& queue_depth;
  obs::Counter& jobs;
  obs::Counter& inline_jobs;
  obs::Counter& indices;
  obs::Histogram& wait;  ///< publish -> first index claimed
  obs::Histogram& run;   ///< publish -> all indices drained (owner view)

  static PoolMetrics& get() {
    static PoolMetrics m{
        obs::Registry::global().gauge("rdcn_pool_workers",
                                      "Worker threads in the process pool"),
        obs::Registry::global().gauge("rdcn_pool_queue_depth",
                                      "Parallel jobs currently published"),
        obs::Registry::global().counter(
            "rdcn_pool_jobs_total", "Parallel jobs drained through the pool"),
        obs::Registry::global().counter(
            "rdcn_pool_inline_jobs_total",
            "Parallel regions executed inline (nested or single-index)"),
        obs::Registry::global().counter("rdcn_pool_indices_total",
                                        "Job indices executed"),
        obs::Registry::global().latency_histogram(
            "rdcn_pool_job_wait_seconds",
            "Publish-to-first-claim latency of pooled jobs"),
        obs::Registry::global().latency_histogram(
            "rdcn_pool_job_run_seconds",
            "Publish-to-drained latency of pooled jobs")};
    return m;
  }
};
}  // namespace

struct ThreadPool::Job {
  Body body;
  void* ctx;
  std::size_t count;
  std::atomic<std::size_t> cursor{0};  ///< next index to claim
  std::atomic<std::size_t> done{0};    ///< indices fully executed
  std::atomic<std::int64_t> slots;     ///< worker participation slots left
  std::atomic<std::size_t> active{0};  ///< workers currently draining
  std::uint64_t publish_ns = 0;        ///< set by run() before publishing
  std::atomic<bool> claimed{false};    ///< first index claimed (wait metric)
  obs::SpanContext span = obs::current_span();  ///< the submitter's span
  std::mutex m;
  std::condition_variable cv;

  Job(Body b, void* c, std::size_t n, std::int64_t worker_slots)
      : body(b), ctx(c), count(n), slots(worker_slots) {}

  bool finished() const noexcept {
    return done.load(std::memory_order_acquire) == count &&
           active.load(std::memory_order_acquire) == 0;
  }
};

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool(std::size_t num_workers) {
  if (num_workers == 0) {
    num_workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
  threads_spawned_ = num_workers;
  // Last-constructed pool wins the gauge; in practice only the
  // process-wide instance() pool exists outside pool-specific tests.
  PoolMetrics::get().workers.set(static_cast<std::int64_t>(num_workers));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::drain(Job& job) {
  const obs::SpanParent parent(job.span);
  while (true) {
    const std::size_t i = job.cursor.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.count) return;
    if (!job.claimed.load(std::memory_order_relaxed) &&
        !job.claimed.exchange(true, std::memory_order_relaxed)) {
      PoolMetrics::get().wait.observe_ns(monotonic_now_ns() - job.publish_ns);
    }
    job.body(job.ctx, i);
    job.done.fetch_add(1, std::memory_order_release);
  }
}

ThreadPool::Job* ThreadPool::try_claim_locked() {
  for (Job* job : queue_) {
    if (job->cursor.load(std::memory_order_relaxed) >= job->count) continue;
    if (job->slots.fetch_sub(1, std::memory_order_relaxed) > 0) return job;
    job->slots.fetch_add(1, std::memory_order_relaxed);  // over-subscribed
  }
  return nullptr;
}

void ThreadPool::worker_main() {
  t_on_pool_worker = true;
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    Job* job = try_claim_locked();
    if (job == nullptr) {
      cv_.wait(lock);
      continue;
    }
    job->active.fetch_add(1, std::memory_order_acq_rel);
    lock.unlock();
    drain(*job);
    {
      // The decrement and the wakeup must both happen under job->m, and
      // nothing may touch the job afterwards: the owner destroys the
      // stack-allocated Job as soon as its predicate holds, and it can
      // only re-acquire job->m after we release it here.
      std::lock_guard<std::mutex> g(job->m);
      job->active.fetch_sub(1, std::memory_order_acq_rel);
      job->cv.notify_all();
    }
    lock.lock();
  }
}

void ThreadPool::run(std::size_t count, std::size_t max_parallelism,
                     Body body, void* ctx) {
  if (count == 0) return;
  // Inline execution when parallelism cannot help — or when called from a
  // pool worker (a nested blocking job would risk self-deadlock).
  if (count == 1 || max_parallelism <= 1 || workers_.empty() ||
      t_on_pool_worker) {
    PoolMetrics& metrics = PoolMetrics::get();
    metrics.inline_jobs.inc();
    metrics.indices.add(count);
    for (std::size_t i = 0; i < count; ++i) body(ctx, i);
    return;
  }

  // The owner participates, so hand out one slot fewer to the workers.
  PoolMetrics& metrics = PoolMetrics::get();
  Job job(body, ctx, count,
          static_cast<std::int64_t>(max_parallelism) - 1);
  job.publish_ns = monotonic_now_ns();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(&job);
    metrics.queue_depth.add(1);
  }
  cv_.notify_all();

  drain(job);

  // All indices are claimed once the owner's drain returns, so the job can
  // leave the queue; workers already inside it are tracked via `active`.
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.erase(std::find(queue_.begin(), queue_.end(), &job));
    metrics.queue_depth.add(-1);
    metrics.jobs.inc();
    metrics.indices.add(count);
  }
  std::unique_lock<std::mutex> jl(job.m);
  job.cv.wait(jl, [&] { return job.finished(); });
  metrics.run.observe_ns(monotonic_now_ns() - job.publish_ns);
}

}  // namespace rdcn::sim

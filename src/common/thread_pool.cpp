#include "common/thread_pool.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/contracts.hpp"

namespace swat {

namespace {

// True while the current thread is executing pool work; nested parallel_for
// calls detect this and run inline instead of waiting on the pool.
thread_local bool t_in_pool_work = false;

// The thread's bound pool (ScopedPoolBinding); null = process-wide pool.
thread_local ThreadPool* t_bound_pool = nullptr;

// Rail for SWAT_THREADS: far above any sane host, low enough that an
// overflowed or garbage value cannot ask the OS for a million threads.
constexpr int kMaxThreadCount = 1024;

int default_num_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  const int fallback = hc == 0 ? 1 : static_cast<int>(hc);
  std::string warning;
  const int n =
      parse_thread_count(std::getenv("SWAT_THREADS"), fallback, &warning);
  // instance() constructs exactly once, so a bad SWAT_THREADS warns
  // exactly once per process instead of per parallel_for.
  if (!warning.empty()) {
    std::fprintf(stderr, "swat: warning: %s\n", warning.c_str());
  }
  return n;
}

}  // namespace

int parse_thread_count(const char* text, int fallback,
                       std::string* warning) {
  if (warning != nullptr) warning->clear();
  if (text == nullptr) return fallback;
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  const char* rest = end;
  while (*rest == ' ' || *rest == '\t') ++rest;
  if (end == text || *rest != '\0') {
    if (warning != nullptr) {
      *warning = "SWAT_THREADS=\"" + std::string(text) +
                 "\" is not a thread count — using " +
                 std::to_string(fallback);
    }
    return fallback;
  }
  if (errno == ERANGE || value > kMaxThreadCount) {
    if (warning != nullptr) {
      *warning = "SWAT_THREADS=\"" + std::string(text) +
                 "\" exceeds the " + std::to_string(kMaxThreadCount) +
                 "-thread rail — clamped to " +
                 std::to_string(kMaxThreadCount);
    }
    return kMaxThreadCount;
  }
  if (value < 1) {
    if (warning != nullptr) {
      *warning = "SWAT_THREADS=\"" + std::string(text) +
                 "\" must be >= 1 — clamped to 1 (everything inline)";
    }
    return 1;
  }
  return static_cast<int>(value);
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool(default_num_threads());
  return pool;
}

ThreadPool& current_pool() {
  return t_bound_pool != nullptr ? *t_bound_pool : ThreadPool::instance();
}

ScopedPoolBinding::ScopedPoolBinding(ThreadPool* pool) {
  if (pool == nullptr) return;  // no-op binding: keep the current routing
  prev_ = t_bound_pool;
  t_bound_pool = pool;
  active_ = true;
}

ScopedPoolBinding::~ScopedPoolBinding() {
  if (active_) t_bound_pool = prev_;
}

ThreadPool::ThreadPool(int n, CpuSet affinity)
    : affinity_(std::move(affinity)) {
  start_workers(n);
}

ThreadPool::~ThreadPool() { stop_workers(); }

void ThreadPool::start_workers(int n) {
  SWAT_EXPECTS(n >= 1);
  num_threads_ = n;
  stopping_ = false;
  pinned_workers_.store(0, std::memory_order_relaxed);
  workers_.reserve(static_cast<std::size_t>(n - 1));
  for (int i = 0; i < n - 1; ++i) {
    workers_.emplace_back([this] {
      // Group-level pinning: every worker may run on any CPU of the
      // pool's set — the set (one replica's core group) is the locality
      // unit. Failures are counted, never fatal.
      if (pin_current_thread(affinity_)) {
        pinned_workers_.fetch_add(1, std::memory_order_relaxed);
      }
      worker_loop();
    });
  }
}

void ThreadPool::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

void ThreadPool::set_num_threads(int n) {
  SWAT_EXPECTS(n >= 1);
  {
    // Reconfiguring tears the worker set down; doing that under an
    // in-flight parallel_for would strand its caller.
    std::lock_guard<std::mutex> lock(mutex_);
    SWAT_EXPECTS(job_ == nullptr &&
                 "set_num_threads called during an active parallel_for");
  }
  if (n == num_threads_) return;
  stop_workers();
  start_workers(n);
}

void ThreadPool::run_chunks(Job& job) {
  t_in_pool_work = true;
  std::int64_t completed = 0;
  for (;;) {
    const std::int64_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.num_chunks) break;
    const std::int64_t b = job.begin + c * job.chunk;
    const std::int64_t e = std::min(b + job.chunk, job.end);
    if (b >= e) {
      // Ceil-division chunking can overshoot the range; such chunks are
      // empty but must still count toward completion.
      ++completed;
      continue;
    }
    bool failed;
    {
      std::lock_guard<std::mutex> lock(job.error_mutex);
      failed = job.error != nullptr;
    }
    if (!failed) {
      try {
        job.fn(job.ctx, b, e);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.error_mutex);
        if (!job.error) job.error = std::current_exception();
      }
    }
    ++completed;
  }
  t_in_pool_work = false;
  if (completed > 0 &&
      job.done.fetch_add(completed, std::memory_order_acq_rel) + completed ==
          job.num_chunks) {
    // Empty lock/unlock: without it the notify could race into the window
    // between the waiter's predicate check and its sleep and be lost.
    { std::lock_guard<std::mutex> lock(mutex_); }
    done_cv_.notify_all();
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Join a new job only while fewer than num_threads() threads of this
      // pool are running chunks. Callers of concurrent parallel_fors (two
      // engine replicas sharing the pool) each run chunks too, so without
      // the cap callers + workers would exceed the CPUs the pool was sized
      // for, and a worker preempted mid-chunk stalls its caller's join.
      work_cv_.wait(lock, [&] {
        return stopping_ ||
               (job_ != nullptr && job_epoch_ != seen_epoch &&
                running_.load(std::memory_order_relaxed) < num_threads_);
      });
      if (stopping_) return;
      seen_epoch = job_epoch_;
      job = job_;
      running_.fetch_add(1, std::memory_order_relaxed);
    }
    run_chunks(*job);
    leave_chunks();
  }
}

void ThreadPool::leave_chunks() {
  running_.fetch_sub(1, std::memory_order_relaxed);
  // The freed slot may let a worker the cap held back join the current
  // job, if that job still has chunks nobody has claimed.
  bool open;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    open = job_ != nullptr &&
           job_->next.load(std::memory_order_relaxed) < job_->num_chunks;
  }
  if (open) work_cv_.notify_one();
}

void ThreadPool::parallel_for_raw(std::int64_t begin, std::int64_t end,
                                  std::int64_t grain,
                                  void (*fn)(void*, std::int64_t,
                                             std::int64_t),
                                  void* ctx) {
  SWAT_EXPECTS(grain >= 1);
  SWAT_EXPECTS(fn != nullptr);
  if (end <= begin) return;
  const std::int64_t count = end - begin;
  if (num_threads_ == 1 || count <= grain || t_in_pool_work) {
    fn(ctx, begin, end);
    return;
  }

  // Partition into at most threads * 8 chunks of at least `grain` indices
  // each; the atomic cursor in run_chunks load-balances uneven chunks.
  const std::int64_t max_chunks =
      static_cast<std::int64_t>(num_threads_) * 8;
  const std::int64_t by_grain = (count + grain - 1) / grain;
  const std::int64_t num_chunks = std::clamp<std::int64_t>(
      std::min(by_grain, max_chunks), 1, count);
  auto job = std::make_shared<Job>();
  job->begin = begin;
  job->end = end;
  job->num_chunks = num_chunks;
  job->chunk = (count + num_chunks - 1) / num_chunks;
  job->fn = fn;
  job->ctx = ctx;

  running_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
    ++job_epoch_;
  }
  work_cv_.notify_all();

  // The caller participates, then waits for stragglers.
  run_chunks(*job);
  leave_chunks();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) == job->num_chunks;
    });
    // Only clear our own job: another caller may have published a newer
    // one, and wiping it would strand that caller's workers asleep.
    if (job_ == job) job_ = nullptr;
  }
  if (job->error) std::rethrow_exception(job->error);
}

int num_threads() { return ThreadPool::instance().num_threads(); }

void set_num_threads(int n) { ThreadPool::instance().set_num_threads(n); }

}  // namespace swat

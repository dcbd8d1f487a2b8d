#include "util/thread_pool.hpp"

#include <algorithm>

namespace logp::util {

namespace {
/// Depth of pool tasks on the current thread; >0 while inside run_indices.
thread_local int tl_task_depth = 0;
}  // namespace

ThreadPool::ThreadPool(int workers) {
  workers = std::max(0, workers);
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    ++epoch_;
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(
      std::max(0, static_cast<int>(std::thread::hardware_concurrency()) - 1));
  return pool;
}

bool ThreadPool::in_task() { return tl_task_depth > 0; }

void ThreadPool::run_indices(Job& job) {
  ++tl_task_depth;
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) break;
    try {
      (*job.body)(i);
    } catch (...) {
      job.errors[i] = std::current_exception();
    }
  }
  --tl_task_depth;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_, std::defer_lock);
  for (;;) {
    lk.lock();
    wake_.wait(lk, [&] { return stop_ || epoch_ != seen; });
    if (stop_) return;
    seen = epoch_;
    Job* job = job_;
    // `seats` caps participation at the dispatch's parallelism; claiming a
    // seat and publishing `active` happen under the mutex so the caller's
    // completion check (also under the mutex) can never miss a joiner.
    if (job != nullptr &&
        job->seats.fetch_sub(1, std::memory_order_relaxed) > 0 &&
        job->next.load(std::memory_order_relaxed) < job->n) {
      job->active.fetch_add(1, std::memory_order_relaxed);
      lk.unlock();
      run_indices(*job);
      lk.lock();
      if (job->active.fetch_sub(1, std::memory_order_relaxed) == 1)
        done_.notify_all();
    }
    lk.unlock();
  }
}

void ThreadPool::for_index(std::size_t n, int parallelism,
                           const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  std::vector<std::exception_ptr> errors(n);
  Job job;
  job.body = &body;
  job.n = n;
  job.errors = errors.data();

  const int cap =
      static_cast<int>(std::min<std::size_t>(n - 1, 1u << 20));
  const int extra = std::min({parallelism - 1, workers(), cap});
  if (extra <= 0 || in_task()) {
    // Serial (or nested) execution: run everything inline on the caller.
    // Nested dispatches must not block on workers that may themselves be
    // stuck behind this very task — see the reentrancy note in the header.
    run_indices(job);
  } else {
    job.seats.store(extra, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(mu_);
      job_ = &job;
      ++epoch_;
    }
    wake_.notify_all();
    run_indices(job);  // the caller is a participant
    {
      std::unique_lock<std::mutex> lk(mu_);
      done_.wait(lk, [&] {
        return job.active.load(std::memory_order_relaxed) == 0;
      });
      job_ = nullptr;  // late wakers must not join a dead dispatch
    }
  }

  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace logp::util

// Reusable worker-thread pool shared by every intra-process parallel layer:
// the sweep harness (exp::SweepRunner), Topology::average_distance and the
// model checker's explorer shards. Each dispatches once per sweep, route
// walk or exploration, so workers simply sleep on a condition variable
// between dispatches; keeping them resident saves a thread spawn/join per
// call. A dispatch is one epoch bump plus a notify.
//
// Semantics (deliberately identical to the old SweepRunner inline pool):
//
//  * for_index(n, parallelism, body) runs body(0..n-1) exactly once each,
//    claimed through a shared atomic counter. The *calling* thread
//    participates, so `parallelism` counts it: parallelism-1 resident
//    workers join in at most.
//  * Exceptions are captured per index; after all participants finish, the
//    lowest-index one is rethrown — failure behaviour never depends on
//    worker interleaving.
//  * Reentrancy: a for_index issued from inside a pool task (nested
//    parallelism, e.g. a parallel average_distance inside a sweep worker)
//    runs inline on the caller, serially. The caller of a serial dispatch
//    counts as in-task too, so this holds even inside a one-thread sweep.
//    Every parallel algorithm built on the pool must therefore be correct
//    under serial execution of its tasks, and nested use degrades to the
//    explicit nesting policy of exp::SweepRunner instead of deadlocking or
//    oversubscribing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace logp::util {

class ThreadPool {
 public:
  /// Spawns `workers` resident threads (0 is valid: every for_index then
  /// runs inline on the caller).
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()); }

  /// Process-wide pool with hardware_concurrency() - 1 workers (callers
  /// participate in their own dispatches, so total parallelism matches the
  /// hardware). Constructed on first use.
  static ThreadPool& shared();

  /// Runs body(0), ..., body(n-1), each exactly once, on at most
  /// `parallelism` threads (calling thread included). Blocks until all
  /// indices are done; rethrows the lowest-index exception, if any.
  void for_index(std::size_t n, int parallelism,
                 const std::function<void(std::size_t)>& body);

  /// True while the current thread is executing a pool task (used by the
  /// reentrancy fallback and by layers that must detect nesting).
  static bool in_task();

 private:
  struct Job {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t n = 0;
    std::exception_ptr* errors = nullptr;          ///< slot per index
    std::atomic<std::size_t> next{0};              ///< work-claim counter
    std::atomic<int> seats{0};                     ///< workers still allowed in
    std::atomic<int> active{0};                    ///< workers inside the job
  };

  void worker_loop();
  static void run_indices(Job& job);

  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable done_;
  Job* job_ = nullptr;                 ///< current dispatch, null when idle
  std::uint64_t epoch_ = 0;            ///< bumped per dispatch
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace logp::util

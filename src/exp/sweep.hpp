// Parallel experiment-sweep harness.
//
// Every figure and table in the paper reproduction is a grid of independent
// deterministic simulations over (P, L, o, g) points. SweepRunner fans the
// grid out across a std::thread worker pool and merges the results back in
// spec order, so the emitted util::table rows are byte-identical to a
// sequential run regardless of thread count:
//
//  * each experiment owns its Scheduler/Machine/RNG — no shared mutable
//    state between grid points, and every RNG is seeded from the spec;
//  * workers claim jobs through a single atomic index ("work stealing" by
//    competing on the shared counter), so scheduling order is arbitrary but
//    results land in a pre-sized, index-addressed vector;
//  * the first exception by *spec order* (not completion order) is rethrown
//    on the caller, so even failures are deterministic.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/profiler.hpp"
#include "runtime/scheduler.hpp"
#include "sim/machine.hpp"
#include "trace/recorder.hpp"

namespace logp::exp {

/// One grid point: a complete machine configuration plus the program to run
/// on it. The factory runs inside the worker thread; captured state must not
/// be shared mutably with other specs.
struct ExperimentSpec {
  std::string label;
  sim::MachineConfig config;
  std::function<runtime::Program()> make_program;
  /// Record the run's dependency DAG and carry its critical-path analysis
  /// on the result (obs/critical_path.hpp). The recorder lives on the
  /// worker's stack, so — unlike config.metrics — this composes with any
  /// --threads value; the analysis is deterministic, so results stay
  /// byte-identical across thread counts.
  bool critical_path = false;
};

/// Deterministic outputs of one experiment. Wall-clock time is deliberately
/// absent: rows built from this struct cannot depend on the host machine.
struct ExperimentResult {
  std::size_t index = 0;  ///< position in the spec grid
  std::string label;
  Cycles finish = 0;             ///< simulated completion time
  sim::ProcStats totals;         ///< aggregated over processors
  std::int64_t messages = 0;     ///< total messages carried
  std::uint64_t events = 0;      ///< events the engine processed
  /// Six-bucket LogP time accounting of the run. The harness checks its
  /// structural invariant after every grid point, so each sweep doubles as
  /// a soak test of the machine's cycle accounting.
  obs::LogPProfile profile;
  /// Recorded activity intervals when spec.config.record_trace was set
  /// (empty otherwise). Deterministic: identical across --threads values.
  std::vector<trace::Interval> trace;
  /// True when fault-aware code (resilient collectives) had to route around
  /// a failed processor during this run — the result is valid but was
  /// produced by a degraded configuration.
  bool degraded = false;
  /// Critical-path analysis when spec.critical_path was set (empty
  /// otherwise): bucket/rank attribution, binding path, slack-ranked chains.
  obs::CritPathReport critpath;
};

struct SweepOptions {
  /// Worker threads; 0 means one per hardware thread.
  int threads = 1;
  /// Declared intra-job parallelism. The runner divides its worker budget
  /// by this value so that outer x inner never exceeds the hardware:
  /// SweepOptions{0, 4} on a 16-way host runs 4 jobs concurrently. It only
  /// narrows the sweep. It never lets a job's own parallel work run in
  /// parallel: every util::ThreadPool::for_index issued inside a sweep body
  /// runs inline on that worker, even in a one-thread sweep, because the
  /// pool marks every participant of a dispatch (the serial caller
  /// included) as in-task. No bench sets it; it is kept for source
  /// compatibility and slated for removal.
  int inner_threads = 1;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opts = {});

  int threads() const { return threads_; }
  int inner_threads() const { return inner_threads_; }

  /// Runs every spec on its own Scheduler and returns results in spec order.
  std::vector<ExperimentResult> run(
      const std::vector<ExperimentSpec>& specs) const;

  /// Generic ordered parallel map for sweeps that are not Scheduler programs
  /// (closed-form cost models, the packet-level simulator, ...). jobs[i] runs
  /// once on some worker; the returned vector is ordered by job index.
  template <typename T>
  std::vector<T> map(const std::vector<std::function<T()>>& jobs) const {
    std::vector<T> results(jobs.size());
    for_index(jobs.size(),
              [&](std::size_t i) { results[i] = jobs[i](); });
    return results;
  }

 private:
  /// Runs body(0..n-1) on the shared util::ThreadPool (workers are resident
  /// across run() calls); rethrows the lowest-index exception after all
  /// participants finish.
  void for_index(std::size_t n,
                 const std::function<void(std::size_t)>& body) const;

  int threads_;
  int inner_threads_;
};

/// Consumes a `--threads N` (or `--threads=N`) argument from argv, returning
/// N, or `def` when the flag is absent. Figure binaries pass their argc/argv
/// through so `fig3_broadcast --threads 8` works without further plumbing.
/// N must be a non-negative base-10 int; any other value, or none, stays in
/// argv for reject_unknown_flags.
int threads_from_args(int& argc, char** argv, int def = 1);

/// Consumes an arbitrary `--name N` / `--name=N` integer flag. N must be a
/// complete base-10 int (util::parse_int); otherwise it stays in argv.
int int_from_args(int& argc, char** argv, const char* flag, int def = 0);

/// Consumes `--name VALUE` / `--name=VALUE` like the int helpers above, but
/// keeps the value verbatim (paths, labels). An empty VALUE stays in argv.
std::string string_from_args(int& argc, char** argv, const char* flag,
                             const char* def = "");

/// Consumes a valueless `--name` switch, returning whether it was present.
bool bool_from_args(int& argc, char** argv, const char* flag);

/// Call after all known flags were consumed. If anything besides argv[0]
/// remains, prints "unknown argument '...'" plus a one-line usage to stderr
/// and returns 2 (conventional CLI-misuse exit code); returns 0 on a clean
/// argv. Experiment binaries exit with the code when nonzero, so a typo
/// like `--thread` can never silently run the default configuration.
int reject_unknown_flags(int argc, char** argv, const char* usage);

}  // namespace logp::exp

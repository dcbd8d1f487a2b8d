#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/sweep.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace logp::exp {
namespace {

/// A ping-pong program parameterized by rounds; deterministic and message-y
/// enough that any engine-ordering difference would change its totals.
ExperimentSpec ping_pong_spec(Params prm, std::int64_t rounds,
                              std::uint64_t seed = 0x10c9) {
  ExperimentSpec spec;
  spec.label = prm.to_string();
  spec.config.params = prm;
  spec.config.seed = seed;
  spec.make_program = [rounds]() -> runtime::Program {
    return [rounds](runtime::Ctx ctx) -> runtime::Task {
      return [](runtime::Ctx c, std::int64_t n) -> runtime::Task {
        for (std::int64_t i = 0; i < n; ++i) {
          if (c.proc() == 0) {
            co_await c.send(1, 1);
            (void)co_await c.recv(2);
          } else {
            (void)co_await c.recv(1);
            co_await c.send(0, 2);
          }
        }
      }(ctx, rounds);
    };
  };
  return spec;
}

std::vector<ExperimentSpec> grid() {
  std::vector<ExperimentSpec> specs;
  for (Cycles L : {4, 6, 12})
    for (Cycles g : {2, 4})
      for (std::int64_t rounds : {5, 23}) specs.push_back(
          ping_pong_spec(Params{L, 2, g, 2}, rounds));
  return specs;
}

std::string render(const std::vector<ExperimentResult>& results) {
  util::TablePrinter tp({"label", "finish", "messages", "events"});
  for (const auto& r : results)
    tp.add_row({r.label, std::to_string(r.finish), std::to_string(r.messages),
                std::to_string(r.events)});
  std::ostringstream os;
  tp.print(os);
  return os.str();
}

TEST(Sweep, ResultsIndependentOfThreadCount) {
  const auto specs = grid();
  const auto seq = SweepRunner({1}).run(specs);
  for (int threads : {2, 3, 8, 16}) {
    const auto par = SweepRunner({threads}).run(specs);
    ASSERT_EQ(par.size(), seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(par[i].index, i);
      EXPECT_EQ(par[i].label, seq[i].label);
      EXPECT_EQ(par[i].finish, seq[i].finish);
      EXPECT_EQ(par[i].messages, seq[i].messages);
      EXPECT_EQ(par[i].events, seq[i].events);
      EXPECT_EQ(par[i].totals.send_overhead, seq[i].totals.send_overhead);
      EXPECT_EQ(par[i].totals.stall, seq[i].totals.stall);
      EXPECT_EQ(par[i].totals.gap_wait, seq[i].totals.gap_wait);
    }
    // The rendered table — what figure binaries emit — is byte-identical.
    EXPECT_EQ(render(par), render(seq));
  }
}

TEST(Sweep, SeedStability) {
  // Randomized latency makes the trajectory seed-dependent; the same seed
  // must reproduce the same run on every invocation and thread count.
  auto with_seed = [](std::uint64_t seed) {
    auto spec = ping_pong_spec(Params{12, 2, 3, 2}, 40, seed);
    spec.config.latency_min = 3;  // uniform in [3, L]: reordering possible
    return spec;
  };
  const std::vector<ExperimentSpec> specs = {with_seed(1), with_seed(1),
                                             with_seed(99)};
  const auto r1 = SweepRunner({1}).run(specs);
  const auto r8 = SweepRunner({8}).run(specs);
  EXPECT_EQ(r1[0].finish, r1[1].finish);  // same seed, same trajectory
  EXPECT_EQ(r1[0].events, r1[1].events);
  EXPECT_EQ(r1[0].finish, r8[0].finish);  // threads don't perturb the RNG
  EXPECT_EQ(r8[0].finish, r8[1].finish);
  // A different seed draws different latencies; totals diverge.
  EXPECT_NE(r1[0].totals.gap_wait + r1[0].finish,
            r1[2].totals.gap_wait + r1[2].finish);
}

TEST(Sweep, WorkerExceptionPropagates) {
  auto specs = grid();
  specs[3].make_program = []() -> runtime::Program {
    throw std::runtime_error("factory failed on purpose");
  };
  for (int threads : {1, 4}) {
    EXPECT_THROW(SweepRunner({threads}).run(specs), std::runtime_error);
  }
}

TEST(Sweep, LowestIndexExceptionWins) {
  // Two failing specs: the rethrown error must be the lowest-index one no
  // matter which worker finishes first.
  auto specs = grid();
  specs[5].make_program = []() -> runtime::Program {
    throw std::runtime_error("later failure");
  };
  specs[2].make_program = []() -> runtime::Program {
    throw std::invalid_argument("earlier failure");
  };
  for (int threads : {1, 8}) {
    EXPECT_THROW(SweepRunner({threads}).run(specs), std::invalid_argument);
  }
}

TEST(Sweep, DeadlockInsideWorkerPropagates) {
  auto specs = grid();
  specs[1].make_program = []() -> runtime::Program {
    return [](runtime::Ctx ctx) -> runtime::Task {
      return [](runtime::Ctx c) -> runtime::Task {
        if (c.proc() == 0) (void)co_await c.recv(42);  // nobody sends
      }(ctx);
    };
  };
  EXPECT_THROW(SweepRunner({4}).run(specs), runtime::DeadlockError);
}

TEST(Sweep, MapPreservesOrder) {
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 100; ++i) jobs.push_back([i] { return i * i; });
  const auto out = SweepRunner({7}).map(jobs);
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

/// Runs `scan` over argv = {"prog", args...} and returns what it left after
/// argv[0].
template <typename Scan>
std::vector<std::string> left_after(std::vector<std::string> args,
                                    Scan scan) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  int argc = static_cast<int>(argv.size());
  scan(argc, argv.data());
  return {argv.begin() + 1, argv.begin() + argc};
}

TEST(Sweep, ThreadsFromArgs) {
  {
    const char* raw[] = {"prog", "--threads", "8", "--other"};
    char* argv[] = {const_cast<char*>(raw[0]), const_cast<char*>(raw[1]),
                    const_cast<char*>(raw[2]), const_cast<char*>(raw[3])};
    int argc = 4;
    EXPECT_EQ(threads_from_args(argc, argv), 8);
    EXPECT_EQ(argc, 2);  // --threads 8 consumed; --other kept
    EXPECT_STREQ(argv[1], "--other");
  }
  {
    const char* raw[] = {"prog", "--threads=3"};
    char* argv[] = {const_cast<char*>(raw[0]), const_cast<char*>(raw[1])};
    int argc = 2;
    EXPECT_EQ(threads_from_args(argc, argv), 3);
    EXPECT_EQ(argc, 1);
  }
  {
    const char* raw[] = {"prog"};
    char* argv[] = {const_cast<char*>(raw[0])};
    int argc = 1;
    EXPECT_EQ(threads_from_args(argc, argv, 5), 5);
  }
  // A value that is empty, not a complete base-10 int, or negative is not
  // consumed: argv stays whole, so reject_unknown_flags exits 2 with usage
  // instead of the run falling back to a default.
  for (const std::vector<std::string>& bad :
       std::vector<std::vector<std::string>>{{"--threads", "abc"},
                                             {"--threads", "4x"},
                                             {"--threads", "-3"},
                                             {"--threads", ""},
                                             {"--threads="},
                                             {"--threads=abc"},
                                             {"--threads", "99999999999"}}) {
    SCOPED_TRACE(::testing::PrintToString(bad));
    EXPECT_EQ(left_after(bad,
                         [](int& argc, char** argv) {
                           EXPECT_EQ(threads_from_args(argc, argv, 5), 5);
                         }),
              bad);
  }
}

TEST(Sweep, ZeroThreadsMeansHardwareConcurrency) {
  EXPECT_GE(SweepRunner({0}).threads(), 1);
}

TEST(Sweep, RepeatedInvocationsBitForBit) {
  // The runner dispatches onto the resident shared ThreadPool instead of
  // spawning threads per run(); repeated run() calls on one runner — and
  // fresh runners at other thread counts — must keep producing
  // byte-identical tables. Worker reuse must not leak state between
  // invocations.
  const auto specs = grid();
  SweepRunner runner({4});
  const std::string first = render(runner.run(specs));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(render(runner.run(specs)), first);
  EXPECT_EQ(render(SweepRunner({2}).run(specs)), first);
}

TEST(Sweep, NestingPolicyDividesOuterBudget) {
  const int hw = std::max(
      1, static_cast<int>(std::thread::hardware_concurrency()));
  // Declared intra-job parallelism shrinks the outer worker budget so
  // outer x inner never oversubscribes the machine (but never below one).
  SweepRunner nested({0, 2});
  EXPECT_EQ(nested.inner_threads(), 2);
  EXPECT_GE(nested.threads(), 1);
  EXPECT_LE(nested.threads() * 2, std::max(hw, 2));
  // inner_threads = 1 (the default) leaves an explicit outer budget alone.
  EXPECT_EQ(SweepRunner({3, 1}).threads(), 3);
  EXPECT_EQ(SweepRunner({3}).inner_threads(), 1);
}

TEST(Sweep, JobsRunInTaskContextEvenInOneThreadSweep) {
  // The inner_threads budget only narrows the sweep: a pool dispatch issued
  // from inside a job always runs inline, because even the serial caller of
  // a one-thread sweep counts as in-task.
  for (const int threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // int, not bool: vector<bool> packs bits, so parallel writes would race.
    const std::vector<std::function<int()>> jobs(
        3, [] { return util::ThreadPool::in_task() ? 1 : 0; });
    for (const int in_task : SweepRunner({threads}).map(jobs))
      EXPECT_EQ(in_task, 1);
  }
}

TEST(Sweep, RunnerStaysUsableAfterFailure) {
  // A failing sweep rethrows its (lowest-index) exception exactly once; the
  // runner and its resident worker pool are untouched, so the next run()
  // produces the usual byte-identical results.
  auto bad = grid();
  bad[0].make_program = []() -> runtime::Program {
    throw std::runtime_error("boom");
  };
  const auto good = grid();
  SweepRunner runner({4});
  const std::string expected = render(SweepRunner({1}).run(good));
  for (int round = 0; round < 2; ++round) {
    EXPECT_THROW(runner.run(bad), std::runtime_error);
    EXPECT_EQ(render(runner.run(good)), expected);
  }
}

TEST(Sweep, IntStringBoolFromArgs) {
  const char* raw[] = {"prog",      "--crash-after", "7",       "--resume",
                       "--checkpoint-dir", "/tmp/x", "--other"};
  char* argv[] = {const_cast<char*>(raw[0]), const_cast<char*>(raw[1]),
                  const_cast<char*>(raw[2]), const_cast<char*>(raw[3]),
                  const_cast<char*>(raw[4]), const_cast<char*>(raw[5]),
                  const_cast<char*>(raw[6])};
  int argc = 7;
  EXPECT_EQ(int_from_args(argc, argv, "--crash-after"), 7);
  EXPECT_EQ(argc, 5);
  EXPECT_TRUE(bool_from_args(argc, argv, "--resume"));
  EXPECT_EQ(argc, 4);
  EXPECT_FALSE(bool_from_args(argc, argv, "--resume"));  // already consumed
  EXPECT_EQ(string_from_args(argc, argv, "--checkpoint-dir"), "/tmp/x");
  EXPECT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "--other");
  // Defaults when the flag is absent.
  EXPECT_EQ(int_from_args(argc, argv, "--missing", 9), 9);
  EXPECT_EQ(string_from_args(argc, argv, "--missing", "d"), "d");
  // Negative ints are ints (mc_check's --shard -1).
  EXPECT_TRUE(left_after({"--shard", "-1"}, [](int& c, char** v) {
                EXPECT_EQ(int_from_args(c, v, "--shard", 0), -1);
              }).empty());
  // A malformed int and an empty string are left in argv whole.
  for (const std::vector<std::string>& bad :
       std::vector<std::vector<std::string>>{{"--crash-after", "x"},
                                             {"--crash-after", "1.5"},
                                             {"--crash-after", ""},
                                             {"--crash-after="},
                                             {"--crash-after=7 "}}) {
    SCOPED_TRACE(::testing::PrintToString(bad));
    EXPECT_EQ(left_after(bad,
                         [](int& c, char** v) {
                           EXPECT_EQ(int_from_args(c, v, "--crash-after", 9),
                                     9);
                         }),
              bad);
  }
  for (const std::vector<std::string>& bad :
       std::vector<std::vector<std::string>>{{"--checkpoint-dir="},
                                             {"--checkpoint-dir", ""}}) {
    SCOPED_TRACE(::testing::PrintToString(bad));
    EXPECT_EQ(left_after(bad,
                         [](int& c, char** v) {
                           EXPECT_EQ(string_from_args(c, v, "--checkpoint-dir",
                                                      "d"),
                                     "d");
                         }),
              bad);
  }
}

TEST(Sweep, RejectUnknownFlagsExitsWithUsage) {
  {
    const char* raw[] = {"prog"};
    char* argv[] = {const_cast<char*>(raw[0])};
    EXPECT_EQ(reject_unknown_flags(1, argv, "[--threads N]"), 0);
  }
  {
    // A leftover argument is CLI misuse: exit code 2, by convention.
    const char* raw[] = {"prog", "--sim-thread"};
    char* argv[] = {const_cast<char*>(raw[0]), const_cast<char*>(raw[1])};
    EXPECT_EQ(reject_unknown_flags(2, argv, "[--threads N]"), 2);
  }
}

}  // namespace
}  // namespace logp::exp

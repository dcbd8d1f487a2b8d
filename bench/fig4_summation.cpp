// Reproduces paper Figure 4: the optimal summation schedule.
//
// Prints the worked example (T=28, P=8, L=5, g=4, o=2), whose communication
// tree the paper draws, executes it on the machine (verifying the deadline
// is met exactly), and sweeps: inputs summable vs deadline, and time to sum
// n values vs P against the naive non-overlapping binomial baseline.
#include <iostream>
#include <vector>

#include "core/summation.hpp"
#include "exp/sweep.hpp"
#include "obs/cli.hpp"
#include "runtime/collectives.hpp"
#include "util/table.hpp"

namespace {

using namespace logp;

Cycles simulate(const Params& prm, const SumSchedule& sched_def,
                std::uint64_t* result, const obs::ObsFlags& flags) {
  sim::MachineConfig cfg;
  cfg.params = prm;
  cfg.record_trace = flags.wants_trace();
  runtime::Scheduler sched(cfg);
  sched.set_program([&](runtime::Ctx ctx) -> runtime::Task {
    return runtime::coll::reduce_optimal(
        ctx, sched_def, [](ProcId, std::int64_t) { return 1; }, result);
  });
  const Cycles end = sched.run();
  obs::emit_machine_obs(flags, sched.machine(), "fig4 worked example",
                        std::cout);
  return end;
}

}  // namespace

int main(int argc, char** argv) {
  // --trace / --profile / --trace-json FILE apply to the worked example.
  const obs::ObsFlags obs_flags = obs::obs_from_args(
      argc, argv, obs::kTraceFlag | obs::kProfileFlag | obs::kTraceJsonFlag);
  if (const int rc = exp::reject_unknown_flags(
          argc, argv, "[--trace] [--profile] [--trace-json FILE]"))
    return rc;
  std::cout << "== Figure 4: optimal summation ==\n\n";

  const Params fig4{5, 2, 4, 8};
  const auto s = optimal_sum_schedule(28, fig4);
  std::cout << "Worked example T=28, " << fig4.to_string() << ":\n";
  for (std::size_t i = 0; i < s.nodes.size(); ++i) {
    const auto& n = s.nodes[i];
    std::cout << "  P" << i << ": completes partial sum at t=" << n.budget
              << ", " << n.local_inputs << " local inputs";
    if (n.parent >= 0) std::cout << ", sends to P" << n.parent;
    std::cout << '\n';
  }
  std::cout << "total inputs: " << s.total_inputs
            << " (paper draws node completion times 28/18/14/10/6/8/4/4)\n";

  std::uint64_t result = 0;
  const Cycles end = simulate(fig4, s, &result, obs_flags);
  std::cout << "simulated: sum of " << result << " inputs finished at t="
            << end << (end == 28 ? " — meets the deadline exactly\n\n"
                                 : " — DEADLINE MISSED\n\n");

  std::cout << "== Inputs summable within deadline T (P=1024, Fig-4 params) ==\n\n";
  util::TablePrinter tp({"T", "optimal inputs", "single-proc inputs",
                         "processors used"});
  Params big = fig4;
  big.P = 1024;
  for (Cycles T : {8, 16, 24, 32, 48, 64, 96, 128}) {
    const auto sched = optimal_sum_schedule(T, big);
    tp.add_row({std::to_string(T), util::fmt_count(sched.total_inputs),
                util::fmt_count(T + 1), std::to_string(sched.procs_used())});
  }
  tp.print(std::cout);

  std::cout << "\n== Time to sum n values (Fig-4 params; cycles) ==\n\n";
  util::TablePrinter np({"n", "P", "optimal", "naive binomial", "speedup"});
  for (std::int64_t n : {256, 1024, 4096, 16384}) {
    for (int P : {8, 64, 512}) {
      Params prm = fig4;
      prm.P = P;
      const Cycles opt = optimal_sum_time(n, prm);
      const Cycles naive = naive_sum_time(n, prm);
      np.add_row({util::fmt_count(n), std::to_string(P),
                  util::fmt_count(opt), util::fmt_count(naive),
                  util::fmt(double(naive) / double(opt), 2)});
    }
  }
  np.print(std::cout);
  std::cout << "\nThe optimal schedule overlaps local additions with the\n"
               "arrival of partial sums; inputs are deliberately unevenly\n"
               "distributed across processors.\n";
  return 0;
}

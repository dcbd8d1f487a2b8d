// Reproduces the Section 6 model comparison: what PRAM, BSP and LogP
// predict for broadcast, summation and the FFT — against what the LogP
// machine actually does. The PRAM's free communication makes it wildly
// optimistic; BSP's mandatory barriers and next-superstep delivery make it
// pessimistic for latency-sensitive schedules; LogP's predictions are what
// the simulator executes.
#include <iostream>

#include "core/broadcast_tree.hpp"
#include "core/fft_cost.hpp"
#include "core/summation.hpp"
#include "exp/sweep.hpp"
#include "models/bsp.hpp"
#include "models/pram.hpp"
#include "obs/cli.hpp"
#include "runtime/collectives.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using namespace logp;

Cycles simulate_broadcast(const Params& prm,
                          const obs::ObsFlags* flags = nullptr) {
  const auto tree = optimal_broadcast_tree(prm);
  sim::MachineConfig cfg;
  cfg.params = prm;
  cfg.record_trace = flags != nullptr && flags->wants_trace();
  runtime::Scheduler sched(cfg);
  std::vector<std::uint64_t> value(static_cast<std::size_t>(prm.P), 1);
  sched.set_program([&](runtime::Ctx ctx) -> runtime::Task {
    return runtime::coll::broadcast_optimal(
        ctx, tree, &value[static_cast<std::size_t>(ctx.proc())]);
  });
  const Cycles end = sched.run();
  if (flags != nullptr)
    obs::emit_machine_obs(*flags, sched.machine(), "optimal broadcast P=64",
                          std::cout);
  return end;
}

Cycles simulate_sum(const Params& prm, std::int64_t n) {
  const Cycles T = optimal_sum_time(n, prm);
  const auto schedule = optimal_sum_schedule(T, prm);
  sim::MachineConfig cfg;
  cfg.params = prm;
  runtime::Scheduler sched(cfg);
  std::uint64_t out = 0;
  sched.set_program([&](runtime::Ctx ctx) -> runtime::Task {
    return runtime::coll::reduce_optimal(
        ctx, schedule, [](ProcId, std::int64_t) { return 1; }, &out);
  });
  return sched.run();
}

}  // namespace

int main(int argc, char** argv) {
  // --trace / --profile re-run the optimal-broadcast row's simulation with
  // recording on after the tables; defaults leave output untouched.
  const obs::ObsFlags obs_flags = obs::obs_from_args(
      argc, argv, obs::kTraceFlag | obs::kProfileFlag | obs::kTraceJsonFlag);
  if (const int rc = exp::reject_unknown_flags(
          argc, argv, "[--trace] [--profile] [--trace-json FILE]"))
    return rc;
  const Params prm{20, 4, 8, 64};
  const std::int64_t n = 1 << 16;
  models::PramModel pram{prm.P};
  // BSP parameters matched to the same machine: per-message routing cost g,
  // barrier = one dissemination barrier's worth of messages.
  models::BspModel bsp{prm.P, prm.g,
                       static_cast<Cycles>(7) * prm.message_time()};

  std::cout << "== Section 6: model predictions vs LogP execution ==\n"
            << "machine " << prm.to_string() << ", n = " << n
            << " where applicable (cycles)\n\n";

  util::TablePrinter tp({"problem", "PRAM", "BSP", "LogP analytic",
                         "LogP simulated"});
  tp.add_row({"broadcast (1 word)", util::fmt_count(pram.broadcast_erew()),
              util::fmt_count(bsp.broadcast_tree()),
              util::fmt_count(optimal_broadcast_time(prm)),
              util::fmt_count(simulate_broadcast(prm))});
  const std::int64_t nsum = 1 << 12;
  tp.add_row({"sum of 4096", util::fmt_count(pram.sum(nsum)),
              util::fmt_count(bsp.sum(nsum)),
              util::fmt_count(optimal_sum_time(nsum, prm)),
              util::fmt_count(simulate_sum(prm, nsum))});
  const auto fft = fft_cost(n, FftLayout::kHybrid, prm);
  tp.add_row({"FFT 64K pts", util::fmt_count(pram.fft(n)),
              util::fmt_count(bsp.fft(n)), util::fmt_count(fft.total()),
              "(see fig6 bench)"});
  tp.print(std::cout);

  std::cout << "\nPRAM charges nothing for communication, so its broadcast\n"
            << "and summation predictions are off by orders of magnitude.\n"
            << "BSP is close on bulk work but cannot express the overlapped\n"
            << "broadcast/summation schedules (messages arrive only at the\n"
            << "next superstep, and every step pays the barrier l).\n\n";

  std::cout << "== Executable BSP: tree summation on the BspMachine ==\n\n";
  util::TablePrinter bp({"P", "BSP time", "LogP optimal", "BSP/LogP"});
  for (const int P : {8, 32, 128}) {
    Params lp = prm;
    lp.P = P;
    models::BspMachine m(P, prm.g, static_cast<Cycles>(7) * prm.message_time());
    std::vector<std::uint64_t> acc(static_cast<std::size_t>(P), nsum / P);
    for (int stride = 1; stride < P; stride *= 2) {
      m.superstep([&](ProcId p, const auto& in, auto& out) {
        for (const auto& msg : in) acc[static_cast<std::size_t>(p)] += msg.word;
        if ((p & (2 * stride - 1)) == stride)
          out.push_back({-1, p - stride, 0, acc[static_cast<std::size_t>(p)]});
        return Cycles{1};
      });
    }
    m.superstep([&](ProcId p, const auto& in, auto&) {
      for (const auto& msg : in) acc[static_cast<std::size_t>(p)] += msg.word;
      return Cycles{0};
    });
    const Cycles bsp_time = m.time() + nsum / P - 1;  // local chains first
    const Cycles logp_time = optimal_sum_time(nsum, lp);
    bp.add_row({std::to_string(P), util::fmt_count(bsp_time),
                util::fmt_count(logp_time),
                util::fmt(double(bsp_time) / double(logp_time), 2)});
  }
  bp.print(std::cout);

  if (obs_flags.any()) simulate_broadcast(prm, &obs_flags);
  return 0;
}

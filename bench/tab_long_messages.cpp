// Ablation for paper Section 5.4 (long messages): a train of small messages
// paced by the gap versus a DMA engine that streams the payload while the
// processor computes. The paper's claim: a separate message processor "can
// at best double the performance of each node" — it removes the per-word
// CPU cost but none of the wire time.
#include <iostream>

#include "exp/sweep.hpp"
#include "obs/cli.hpp"
#include "runtime/bulk.hpp"
#include "runtime/scheduler.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using namespace logp;
using runtime::Ctx;
using runtime::Task;

struct Result {
  Cycles total;
  Cycles sender_cpu_busy;
};

// One-way transfer of `words` plus `overlap` cycles of independent compute
// at the sender, measured end to end.
Result run_train(const Params& prm, std::uint64_t words, Cycles overlap,
                 const obs::ObsFlags* flags = nullptr) {
  sim::MachineConfig cfg;
  cfg.params = prm;
  cfg.record_trace = flags != nullptr && flags->wants_trace();
  runtime::Scheduler sched(cfg);
  sched.set_program([&](Ctx ctx) -> Task {
    return [](Ctx c, std::uint64_t w, Cycles ov) -> Task {
      if (c.proc() == 0) {
        std::vector<std::uint64_t> payload(w, 1);
        co_await runtime::send_bulk(c, 1, 7, payload, 3);
        co_await c.compute(ov);  // compute cannot overlap the train
      } else {
        std::vector<std::uint64_t> got;
        co_await runtime::recv_bulk(c, 7, 0, &got);
      }
    }(ctx, words, overlap);
  });
  Result r;
  r.total = sched.run();
  r.sender_cpu_busy = sched.machine().stats(0).busy();
  if (flags != nullptr)
    obs::emit_machine_obs(*flags, sched.machine(), "small-message train",
                          std::cout);
  return r;
}

Result run_dma(const Params& prm, std::uint64_t words, Cycles overlap,
               Cycles G, const obs::ObsFlags* flags = nullptr) {
  sim::MachineConfig cfg;
  cfg.params = prm;
  cfg.record_trace = flags != nullptr && flags->wants_trace();
  runtime::Scheduler sched(cfg);
  sched.set_program([&](Ctx ctx) -> Task {
    return [](Ctx c, std::uint64_t w, Cycles ov, Cycles G) -> Task {
      if (c.proc() == 0) {
        co_await c.send_dma(1, 7, w, G);
        co_await c.compute(ov);  // overlaps with the stream
      } else {
        (void)co_await c.recv(7);
      }
    }(ctx, words, overlap, G);
  });
  Result r;
  r.total = sched.run();
  r.sender_cpu_busy = sched.machine().stats(0).busy();
  if (flags != nullptr)
    obs::emit_machine_obs(*flags, sched.machine(), "dma stream", std::cout);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  // --trace / --profile apply to one exemplar train + DMA pair (words=300,
  // full overlap), re-run after the table.
  const obs::ObsFlags obs_flags = obs::obs_from_args(
      argc, argv, obs::kTraceFlag | obs::kProfileFlag | obs::kTraceJsonFlag);
  if (const int rc = exp::reject_unknown_flags(
          argc, argv, "[--trace] [--profile] [--trace-json FILE]"))
    return rc;
  const Params prm{20, 4, 8, 2};
  const Cycles G = 3;  // DMA streams one word per 3 cycles (= g per message
                       // of 3 words — same wire bandwidth as the train)
  std::cout << "== Section 5.4: long messages — small-message train vs DMA "
               "==\n"
            << "machine " << prm.to_string() << ", DMA G = " << G
            << " cycles/word (equal wire bandwidth)\n\n";

  util::TablePrinter tp({"words", "overlap", "train total", "dma total",
                         "speedup", "train CPU busy", "dma CPU busy"});
  for (const std::uint64_t words : {30u, 300u, 3000u}) {
    for (const Cycles overlap :
         {Cycles{0}, static_cast<Cycles>(words) * G}) {
      const auto train = run_train(prm, words, overlap);
      const auto dma = run_dma(prm, words, overlap, G);
      tp.add_row({util::fmt_count(static_cast<std::int64_t>(words)),
                  util::fmt_count(overlap), util::fmt_count(train.total),
                  util::fmt_count(dma.total),
                  util::fmt(double(train.total) / double(dma.total), 2),
                  util::fmt_count(train.sender_cpu_busy),
                  util::fmt_count(dma.sender_cpu_busy)});
    }
  }
  tp.print(std::cout);

  std::cout << "\nWith no compute to overlap, DMA saves only the per-\n"
               "fragment overheads; with a full stream's worth of compute\n"
               "the speedup approaches — and cannot exceed — 2x, the\n"
               "paper's bound for adding a message processor per node.\n";

  if (obs_flags.any()) {
    const std::uint64_t words = 300;
    // --trace-json captures the DMA run only; the train run would
    // otherwise overwrite the file.
    obs::ObsFlags train_flags = obs_flags;
    train_flags.trace_json.clear();
    run_train(prm, words, static_cast<Cycles>(words) * G, &train_flags);
    run_dma(prm, words, static_cast<Cycles>(words) * G, G, &obs_flags);
  }
  return 0;
}

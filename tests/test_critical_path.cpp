// Critical-path tracer and what-if analysis (obs/critical_path.hpp,
// obs/whatif.hpp): the telescoping invariant (path bucket lengths sum
// exactly to the finish time), artifact determinism across sweep thread
// counts, model-vs-simulation agreement of the what-if recomputation, the
// zero-allocation promise of a detached (and of a warmed-up) recorder, and
// the packet engine's introspection-counter sink.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/broadcast_tree.hpp"
#include "exp/sweep.hpp"
#include "fault/fault.hpp"
#include "net/packet_sim.hpp"
#include "net/topology.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/whatif.hpp"
#include "runtime/collectives.hpp"
#include "runtime/scheduler.hpp"

// ---- counting operator new (for the zero-allocation tests) ---------------
// Counts every scalar/array heap allocation in the process. Deallocation is
// not counted; the tests compare allocation *deltas* between identical runs.

namespace {
std::atomic<std::int64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace logp {
namespace {

using runtime::Ctx;
using runtime::Task;

// ---- workloads (the same two shapes test_obs pins the profiler with) -----

/// Optimal broadcast over the tree computed from `prm` — the tree is built
/// from the ORIGINAL parameters even when the machine runs scaled ones, so a
/// what-if prediction and its validating re-simulation execute the same
/// schedule.
exp::ExperimentSpec broadcast_spec(const Params& machine_params,
                                   const Params& tree_params) {
  auto tree = std::make_shared<const BroadcastTree>(
      optimal_broadcast_tree(tree_params));
  exp::ExperimentSpec spec;
  spec.label = "bcast";
  spec.config.params = machine_params;
  spec.make_program = [tree, P = machine_params.P]() -> runtime::Program {
    auto value = std::make_shared<std::vector<std::uint64_t>>(
        static_cast<std::size_t>(P), 0);
    (*value)[0] = 1;
    return [tree, value](Ctx ctx) -> Task {
      return runtime::coll::broadcast_optimal(
          ctx, *tree, &(*value)[static_cast<std::size_t>(ctx.proc())]);
    };
  };
  return spec;
}

/// Capacity flood onto proc 0: ceil(L/g) fills immediately, so the capacity
/// edges and the gap-priced receive port are both on the recorded DAG.
exp::ExperimentSpec flood_spec(const Params& prm) {
  exp::ExperimentSpec spec;
  spec.label = "flood";
  spec.config.params = prm;
  spec.make_program = [P = prm.P]() -> runtime::Program {
    return [P](Ctx ctx) -> Task {
      return [](Ctx c, int senders) -> Task {
        if (c.proc() == 0) {
          for (int i = 0; i < senders * 12; ++i) (void)co_await c.recv(7);
        } else {
          for (int i = 0; i < 12; ++i) co_await c.send(0, 7);
        }
      }(ctx, P - 1);
    };
  };
  return spec;
}

/// Runs one spec with `rec` attached (null = detached) and returns the
/// finish time.
Cycles run_with_recorder(const exp::ExperimentSpec& spec,
                         obs::CritPathRecorder* rec) {
  sim::MachineConfig cfg = spec.config;
  cfg.critpath = rec;
  runtime::Scheduler sched(cfg);
  sched.set_program(spec.make_program());
  return sched.run();
}

const Params kFig3{6, 2, 4, 8};
const Params kFloodParams{12, 1, 3, 4};  // capacity ceil(12/3) = 4

// ---- the telescoping invariant -------------------------------------------

void expect_path_sums_to_finish(const exp::ExperimentSpec& spec) {
  obs::CritPathRecorder rec;
  const Cycles finish = run_with_recorder(spec, &rec);
  ASSERT_FALSE(rec.empty());
  EXPECT_TRUE(rec.finished());
  EXPECT_EQ(rec.finish(), finish);

  const obs::CritPathReport rep = obs::analyze_critical_path(rec);
  EXPECT_EQ(rep.finish, finish);
  EXPECT_EQ(rep.node_count, rec.size());
  ASSERT_FALSE(rep.path.empty());

  // The headline invariant: per-bucket path lengths sum exactly to finish.
  EXPECT_EQ(rep.bucket_sum(), finish);

  // The per-rank split is the same sum, tiled by processor.
  std::array<Cycles, obs::kCritBuckets> from_ranks{};
  for (const auto& r : rep.per_rank)
    for (int b = 0; b < obs::kCritBuckets; ++b) from_ranks[b] += r[b];
  EXPECT_EQ(from_ranks, rep.buckets);

  // Path steps telescope: weights along the walk also sum to finish.
  Cycles along_path = rep.anchor_cycles;
  for (const auto& s : rep.path) along_path += s.w;
  EXPECT_EQ(along_path, finish);

  // Chains are sorted by (slack asc, cycles desc); the first is critical.
  ASSERT_FALSE(rep.chains.empty());
  EXPECT_EQ(rep.chains.front().slack, 0);
  for (std::size_t i = 1; i < rep.chains.size(); ++i) {
    EXPECT_GE(rep.chains[i].slack, rep.chains[i - 1].slack);
    if (rep.chains[i].slack == rep.chains[i - 1].slack) {
      EXPECT_LE(rep.chains[i].cycles, rep.chains[i - 1].cycles);
    }
  }
  // A chain is a linear path segment, so it can never outweigh the finish.
  for (const auto& c : rep.chains) {
    EXPECT_GT(c.cycles, 0);
    EXPECT_LE(c.cycles, finish);
    EXPECT_LE(c.t0, c.t1);
    EXPECT_LE(c.proc_lo, c.proc_hi);
  }
}

TEST(CriticalPath, BroadcastPathSumsToFinish) {
  expect_path_sums_to_finish(broadcast_spec(kFig3, kFig3));
  // The worked example's finish is pinned by the paper (t = 24).
  obs::CritPathRecorder rec;
  EXPECT_EQ(run_with_recorder(broadcast_spec(kFig3, kFig3), &rec), 24);
}

TEST(CriticalPath, SaturatedFloodPathSumsToFinish) {
  expect_path_sums_to_finish(flood_spec(kFloodParams));
}

TEST(CriticalPath, DetachedRunRecordsNothing) {
  obs::CritPathRecorder rec;
  run_with_recorder(broadcast_spec(kFig3, kFig3), nullptr);
  EXPECT_TRUE(rec.empty());
  const obs::CritPathReport rep = obs::analyze_critical_path(rec);
  EXPECT_TRUE(rep.empty());
  EXPECT_EQ(rep.bucket_sum(), 0);
}

// ---- artifact determinism ------------------------------------------------

TEST(CriticalPath, ArtifactByteIdenticalAcrossSweepThreads) {
  std::vector<exp::ExperimentSpec> specs;
  for (int i = 0; i < 6; ++i) {
    specs.push_back(i % 2 ? flood_spec(kFloodParams)
                          : broadcast_spec(kFig3, kFig3));
    specs.back().critical_path = true;
  }
  const auto seq = exp::SweepRunner({1}).run(specs);
  const auto par = exp::SweepRunner({4}).run(specs);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    ASSERT_FALSE(seq[i].critpath.empty()) << "spec " << i;
    EXPECT_EQ(obs::critpath_json(seq[i].critpath),
              obs::critpath_json(par[i].critpath))
        << "spec " << i << " JSON artifact differs across thread counts";
    EXPECT_EQ(obs::critpath_csv(seq[i].critpath),
              obs::critpath_csv(par[i].critpath));
  }
}

TEST(CriticalPath, CsvSchemaMatchesTraceSummary) {
  obs::CritPathRecorder rec;
  run_with_recorder(broadcast_spec(kFig3, kFig3), &rec);
  const std::string csv = obs::critpath_csv(obs::analyze_critical_path(rec));
  // tools/trace_summary.py autodetects the format by this exact header.
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "chain,slack,cycles,nodes,t0,t1,proc_lo,proc_hi");
  const std::string json =
      obs::critpath_json(obs::analyze_critical_path(rec));
  EXPECT_EQ(json.find("{\"critical_path\": {"), 0u);
}

// ---- what-if vs re-simulation --------------------------------------------

TEST(WhatIf, IdentityRecostReproducesFinishExactly) {
  for (const auto& spec :
       {broadcast_spec(kFig3, kFig3), flood_spec(kFloodParams)}) {
    obs::CritPathRecorder rec;
    const Cycles finish = run_with_recorder(spec, &rec);
    EXPECT_EQ(obs::whatif_finish(rec, obs::WhatIfSpec{}), finish)
        << spec.label;
  }
}

TEST(WhatIf, UniformScalingMatchesResimulation) {
  for (const double f : {2.0, 3.0}) {
    const obs::WhatIfSpec spec{f, f, f, f};
    ASSERT_TRUE(spec.is_uniform());
    // Flood (no compute, capacity-bound): prediction must be exact.
    obs::CritPathRecorder rec;
    run_with_recorder(flood_spec(kFloodParams), &rec);
    const Cycles predicted = obs::whatif_finish(rec, spec);
    const Params scaled = obs::scale_params(kFloodParams, spec);
    const Cycles resim = run_with_recorder(flood_spec(scaled), nullptr);
    EXPECT_EQ(predicted, resim) << "uniform x" << f;
  }
}

TEST(WhatIf, HalvedOverheadMatchesResimulation) {
  // The acceptance case: fig3's broadcast under o = 0.5x. The re-simulation
  // keeps the tree computed from the ORIGINAL parameters (same schedule,
  // cheaper overheads) and runs the machine with o halved.
  obs::CritPathRecorder rec;
  const Cycles baseline = run_with_recorder(broadcast_spec(kFig3, kFig3),
                                            &rec);
  ASSERT_EQ(baseline, 24);

  obs::WhatIfSpec spec;
  spec.o = 0.5;
  const Cycles predicted = obs::whatif_finish(rec, spec);

  const Params halved = obs::scale_params(kFig3, spec);
  ASSERT_EQ(halved.o, 1);
  const Cycles resim =
      run_with_recorder(broadcast_spec(halved, kFig3), nullptr);
  EXPECT_EQ(predicted, resim) << "o=0.5x prediction drifted from re-sim";
  EXPECT_LT(predicted, baseline);

  const obs::WhatIfResult r = obs::whatif(rec, spec);
  EXPECT_EQ(r.baseline, baseline);
  EXPECT_EQ(r.predicted, predicted);
  EXPECT_GT(r.speedup, 1.0);
}

TEST(WhatIf, ParseAcceptsDocumentedForms) {
  std::string err;
  auto s = obs::parse_whatif("L=0.5x,o=2x", &err);
  ASSERT_TRUE(s.has_value()) << err;
  EXPECT_EQ(s->L, 0.5);
  EXPECT_EQ(s->o, 2.0);
  EXPECT_EQ(s->g, 1.0);
  EXPECT_FALSE(s->is_identity());

  s = obs::parse_whatif("g=1.5,compute=3");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->g, 1.5);
  EXPECT_EQ(s->compute, 3.0);

  s = obs::parse_whatif("c=2X");  // 'c' aliases compute; capital X accepted
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->compute, 2.0);
  EXPECT_EQ(s->label(), "compute=2x");

  s = obs::parse_whatif("o=1");
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->is_identity());
  EXPECT_EQ(s->label(), "identity");
}

TEST(WhatIf, ParseRejectsMalformedSpecs) {
  for (const char* bad : {"", "q=2", "o=", "=2", "o", "o=0", "o=-1",
                          "o=abc", "o=1.5y", "o=2,,g=1", "o=2 "}) {
    std::string err;
    EXPECT_FALSE(obs::parse_whatif(bad, &err).has_value()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

// ---- allocation accounting -----------------------------------------------

/// Allocation delta of one full scheduler run (config through finish).
std::int64_t allocs_for_run(const exp::ExperimentSpec& spec,
                            obs::CritPathRecorder* rec) {
  const std::int64_t before = g_allocs.load(std::memory_order_relaxed);
  run_with_recorder(spec, rec);
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(CriticalPath, DetachedRecorderAddsNoAllocations) {
  const auto spec = broadcast_spec(kFig3, kFig3);
  // Warm up function-local statics and allocator pools.
  allocs_for_run(spec, nullptr);

  // Recorder-off runs are identical allocation-for-allocation: the capture
  // hooks behind a null recorder touch the heap exactly zero times.
  const std::int64_t off1 = allocs_for_run(spec, nullptr);
  const std::int64_t off2 = allocs_for_run(spec, nullptr);
  EXPECT_EQ(off1, off2);

  // A cold recorder allocates (arena chunks, per-proc state)...
  obs::CritPathRecorder rec;
  const std::int64_t cold = allocs_for_run(spec, &rec);
  EXPECT_GT(cold, off1);

  // ...but a warmed-up recorder recycles everything: steady-state capture
  // costs no heap traffic at all (the arena retains its chunks on reset).
  rec.reset();
  const std::int64_t warm = allocs_for_run(spec, &rec);
  EXPECT_EQ(warm, off1);
}

// ---- packet-engine introspection counters --------------------------------

net::PacketSimConfig packet_cfg(double rate) {
  net::PacketSimConfig cfg;
  cfg.injection_rate = rate;
  cfg.warmup = 500;
  cfg.duration = 4000;
  cfg.drain_limit = 60000;
  return cfg;
}

TEST(PacketMetrics, AttachingRegistryDoesNotChangeResults) {
  const auto topo = net::make_mesh2d(8, 8, true);
  const auto cfg = packet_cfg(0.02);
  const net::PacketSimResult plain = net::run_packet_sim(*topo, cfg);

  obs::MetricsRegistry reg;
  auto wired_cfg = cfg;
  wired_cfg.metrics = &reg;
  const net::PacketSimResult wired = net::run_packet_sim(*topo, wired_cfg);

  EXPECT_EQ(plain.injected, wired.injected);
  EXPECT_EQ(plain.delivered, wired.delivered);
  EXPECT_EQ(plain.saturated, wired.saturated);
  EXPECT_EQ(plain.peak_in_flight, wired.peak_in_flight);
  EXPECT_EQ(plain.pool_slots, wired.pool_slots);
  EXPECT_EQ(plain.latency.mean(), wired.latency.mean());
  EXPECT_EQ(plain.p95_latency, wired.p95_latency);
}

TEST(PacketMetrics, FaultFreeRunDispatchesOnlySimdWindows) {
  const auto topo = net::make_mesh2d(8, 8, true);
  auto cfg = packet_cfg(0.02);
  obs::MetricsRegistry reg;
  cfg.metrics = &reg;
  (void)net::run_packet_sim(*topo, cfg);

  EXPECT_GT(reg.counter("net.wheel.pushes")->value(), 0);
  EXPECT_GT(reg.gauge("net.wheel.peak_bucket")->value(), 0);
  EXPECT_GT(reg.counter("net.kernel.simd_windows")->value(), 0);
  EXPECT_EQ(reg.counter("net.kernel.faulted_simd_windows")->value(), 0)
      << "no fault plan attached";
  EXPECT_GT(reg.counter("net.sort.counting_windows")->value(), 0);
}

TEST(PacketMetrics, FaultedRunDispatchesBatchKernelWindows) {
  const auto topo = net::make_mesh2d(8, 8, true);
  auto cfg = packet_cfg(0.02);
  fault::FaultPlan plan;
  plan.drop_rate = 0.02;
  plan.retry_timeout = 4 * net::lookahead(cfg);
  plan.max_retries = 4;
  cfg.faults = &plan;
  obs::MetricsRegistry reg;
  cfg.metrics = &reg;
  const net::PacketSimResult res = net::run_packet_sim(*topo, cfg);

  EXPECT_GT(res.dropped, 0) << "plan must actually drop to exercise retries";
  EXPECT_GT(reg.counter("net.kernel.faulted_simd_windows")->value(), 0)
      << "an active plan counts every window as a faulted dispatch";
  EXPECT_EQ(reg.counter("net.kernel.simd_windows")->value(), 0)
      << "no window of a faulted run counts as fault-free";
}

}  // namespace
}  // namespace logp

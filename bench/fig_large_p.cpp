// Production-scale packet-level scenarios: the Section 5.3 methodology
// pushed to P = 4096..65536 endpoints, the regime the SIMD-batched window
// engine exists for.
//
// Three scenario families, each on a direct (torus) and an indirect
// (tapered fat tree) network:
//
//  * saturation ladder — uniform traffic at a load ladder spanning the
//    knee, as in fig_saturation but at 64x and beyond the paper's P;
//  * sort grid — the transpose and bit-reverse permutations that a
//    column-sort/FFT phase offers the network (a permutation's offered
//    load does not collapse onto one endpoint, so it stays meaningful at
//    P = 65536, where uniform's per-pair statistics wash out);
//  * fault degradation — the same grid point fault-free vs. a plan with
//    packet drops, retransmission, and a degraded spine link.
//
// Wall-clock guidance: the default grid simulates tens of millions of
// link events (minutes of CPU); `--ci` trims to the P = 4096 rows with
// shorter windows for the smoke lane. Note average_distance() is O(P^2)
// route walks — at these P we print the topology's diameter_hops() bound
// instead.
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "exp/sweep.hpp"
#include "fault/fault.hpp"
#include "net/packet_sim.hpp"
#include "net/topology.hpp"
#include "obs/cli.hpp"
#include "obs/metrics.hpp"
#include "obs/net_telemetry.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using namespace logp;

struct Scenario {
  std::string label;
  std::unique_ptr<net::Topology> topo;
  net::TrafficPattern pattern;
  double load;
  Cycles duration;
  const fault::FaultPlan* faults = nullptr;
};

net::PacketSimConfig scenario_config(const Scenario& s) {
  net::PacketSimConfig cfg;
  cfg.pattern = s.pattern;
  cfg.injection_rate = s.load;
  cfg.duration = s.duration;
  cfg.warmup = s.duration / 10;
  cfg.drain_limit = 20 * s.duration;
  cfg.faults = s.faults;
  return cfg;
}

void print_rows(util::TablePrinter& tp, const std::vector<Scenario>& grid,
                const std::vector<net::PacketSimResult>& results) {
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Scenario& s = grid[i];
    const auto& r = results[i];
    if (r.truncated)
      std::fprintf(stderr,
                   "warning: %s gave up draining with %lld packets in "
                   "flight; figures understate congestion\n",
                   s.label.c_str(), static_cast<long long>(r.undrained));
    tp.add_row({s.label, std::to_string(s.topo->num_endpoints()),
                util::fmt(s.load, 4), util::fmt_count(r.injected),
                util::fmt(r.latency.mean(), 0), util::fmt(r.p95_latency, 0),
                util::fmt(r.throughput, 4),
                r.saturated ? "SATURATED" : "stable"});
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = exp::threads_from_args(argc, argv);
  // --ci: the P = 4096 slice with short windows, sized for the smoke lane.
  const bool ci = exp::bool_from_args(argc, argv, "--ci");
  // Packet-level obs subset: the sinks attach to one exemplar re-run (the
  // degraded fault point) after the sweep, so the table above stays
  // byte-identical with the flags on or off.
  const obs::ObsFlags obs_flags =
      obs::obs_from_args(argc, argv, obs::kPacketFlags);
  if (const int rc = exp::reject_unknown_flags(
          argc, argv,
          "[--threads N] [--ci] [--profile] [--trace-json FILE] "
          "[--metrics-csv FILE] [--links-csv FILE]"))
    return rc;

  std::cout << "== Large-P production scenarios (packet-level, P = 4096.."
            << (ci ? "4096" : "65536") << ") ==\n\n";

  // A degraded-but-alive network: steady packet loss with retransmission
  // plus one spine link at quarter speed through the middle of the run.
  fault::FaultPlan plan;
  plan.drop_rate = 0.02;
  plan.retry_timeout = 256;
  plan.max_retries = 4;
  plan.link_faults.push_back({0, 4096, 0, 0, 0});  // placeholder; fixed below
  // Degrade leaf 0's uplink (present in every fat tree) for the middle
  // half of the longest duration used below.
  plan.link_faults[0] = {0, 4096, 1000, 3000, 4};

  std::vector<Scenario> grid;
  const logp::Cycles dur = ci ? 2000 : 6000;
  // -- saturation ladder, P = 4096 --
  for (const double load : {0.001, 0.004, 0.016}) {
    grid.push_back({"saturation/torus64x64", net::make_mesh2d(64, 64, true),
                    net::TrafficPattern::kUniform, load, dur});
    grid.push_back({"saturation/fattree4096t2", net::make_fat_tree4(4096, 2),
                    net::TrafficPattern::kUniform, load, dur});
  }
  // -- sort grid (permutation traffic), P = 4096 --
  for (const auto pat :
       {net::TrafficPattern::kTranspose, net::TrafficPattern::kBitReverse}) {
    const char* pname = net::traffic_pattern_name(pat);
    grid.push_back({std::string("sortgrid/torus64x64/") + pname,
                    net::make_mesh2d(64, 64, true), pat, 0.004, dur});
    grid.push_back({std::string("sortgrid/fattree4096t2/") + pname,
                    net::make_fat_tree4(4096, 2), pat, 0.004, dur});
  }
  // -- fault degradation, P = 4096 (same point with and without the plan) --
  grid.push_back({"faults/off/fattree4096t2", net::make_fat_tree4(4096, 2),
                  net::TrafficPattern::kUniform, 0.004, ci ? 2000 : 4000});
  grid.push_back({"faults/on/fattree4096t2", net::make_fat_tree4(4096, 2),
                  net::TrafficPattern::kUniform, 0.004, ci ? 2000 : 4000,
                  &plan});
  if (!ci) {
    // -- beyond: P = 16384 and P = 65536, permutation traffic (see header) --
    grid.push_back({"scale/torus128x128", net::make_mesh2d(128, 128, true),
                    net::TrafficPattern::kTranspose, 0.002, 3000});
    grid.push_back({"scale/fattree16384t2", net::make_fat_tree4(16384, 2),
                    net::TrafficPattern::kBitReverse, 0.002, 3000});
    grid.push_back({"scale/torus256x256", net::make_mesh2d(256, 256, true),
                    net::TrafficPattern::kTranspose, 0.0005, 2000});
    grid.push_back({"scale/fattree65536t2", net::make_fat_tree4(65536, 2),
                    net::TrafficPattern::kBitReverse, 0.0005, 2000});
  }

  std::vector<std::function<net::PacketSimResult()>> jobs;
  jobs.reserve(grid.size());
  for (const Scenario& s : grid)
    jobs.push_back(
        [&s] { return net::run_packet_sim(*s.topo, scenario_config(s)); });
  const exp::SweepRunner runner({threads});
  const auto results = runner.map(jobs);

  util::TablePrinter tp({"scenario", "P", "load", "injected", "mean lat",
                         "p95 lat", "throughput", "state"});
  print_rows(tp, grid, results);
  tp.print(std::cout);

  // The fault pair, spelled out: what 2% loss + retransmission + a slow
  // uplink does to the same offered load.
  const auto& off = results[results.size() - (ci ? 2 : 6)];
  const auto& on = results[results.size() - (ci ? 1 : 5)];
  std::cout << "\n-- fault degradation (fattree4096t2 @ 0.004) --\n"
            << "fault-free: delivered " << util::fmt_count(off.delivered)
            << ", mean " << util::fmt(off.latency.mean(), 0) << " cyc\n"
            << "degraded:   delivered " << util::fmt_count(on.delivered)
            << ", mean " << util::fmt(on.latency.mean(), 0) << " cyc, dropped "
            << util::fmt_count(on.dropped) << ", retransmitted "
            << util::fmt_count(on.retransmitted) << ", lost "
            << util::fmt_count(on.lost) << "\n\n"
            << "Diameter bounds (hops; O(1), not O(P^2) route walks):\n";
  for (const auto* t :
       {grid[0].topo.get(), grid[1].topo.get()})
    std::cout << "  " << t->name() << ": " << t->diameter_hops() << '\n';
  // Kept verbatim so this stdout stays byte-identical to earlier builds,
  // although no bench accepts --sim-threads any more.
  std::cout << "\nEvery row above is byte-identical at any --threads /\n"
               "--sim-threads value, and with SIMD kernels on or off —\n"
               "the canonical (time, injection-id) order pins the\n"
               "trajectory; batching only changes wall-clock time.\n";

  if (obs_flags.any()) {
    // Exemplar: the degraded fault point (the most telemetry-interesting
    // row — drops, retries, and a slow uplink all show up per-link).
    const Scenario& ex = grid[grid.size() - (ci ? 1 : 5)];
    obs::NetTelemetry tel;
    tel.sample_every = 100;
    obs::MetricsRegistry metrics;
    net::PacketSimConfig cfg = scenario_config(ex);
    cfg.telemetry = &tel;
    cfg.metrics = &metrics;
    (void)net::run_packet_sim(*ex.topo, cfg);
    obs::emit_packet_obs(obs_flags, tel, metrics, ex.label, std::cout);
  }
  return 0;
}

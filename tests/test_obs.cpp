// Observability layer: the registry's accounting, the LogP signature
// invariant (every processor-cycle lands in exactly one of six buckets),
// exporter determinism, and the promise that attaching any sink never
// changes simulation results.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "exp/sweep.hpp"
#include "net/packet_sim.hpp"
#include "net/topology.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/cli.hpp"
#include "obs/metrics.hpp"
#include "obs/net_telemetry.hpp"
#include "obs/profiler.hpp"
#include "runtime/collectives.hpp"
#include "runtime/scheduler.hpp"
#include "trace/timeline.hpp"

namespace logp {
namespace {

using runtime::Ctx;
using runtime::Task;

// ---- metrics registry ----------------------------------------------------

TEST(Metrics, RegistryBasics) {
  obs::MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());

  obs::Counter* c = reg.counter("a.count");
  c->add();
  c->add(41);
  EXPECT_EQ(c->value(), 42);
  EXPECT_EQ(reg.counter("a.count"), c) << "re-registration must be stable";

  obs::Gauge* g = reg.gauge("b.depth");
  g->set(7);
  g->set(3);
  EXPECT_EQ(g->value(), 3);
  EXPECT_EQ(g->max(), 7);
  g->observe_max(11);
  EXPECT_EQ(g->value(), 3);
  EXPECT_EQ(g->max(), 11);

  obs::FixedHistogram* h = reg.histogram("c.lat", 0.0, 100.0, 10);
  for (int i = 0; i < 100; ++i) h->observe(i);
  EXPECT_EQ(h->count(), 100);
  EXPECT_EQ(h->min(), 0.0);
  EXPECT_EQ(h->max(), 99.0);
  EXPECT_NEAR(h->quantile(0.5), 50.0, 10.0);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(Metrics, DumpsAreSortedAndSchemaStable) {
  obs::MetricsRegistry reg;
  reg.counter("zz.last")->add(1);
  reg.counter("aa.first")->add(2);
  reg.gauge("mm.mid")->set(5);

  const std::string csv = reg.to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "name,type,value,max,p50,p95");
  EXPECT_LT(csv.find("aa.first"), csv.find("mm.mid"));
  EXPECT_LT(csv.find("mm.mid"), csv.find("zz.last"));

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"aa.first\":2"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// ---- LogP signature invariant --------------------------------------------

/// Binomial broadcast from 0, then one compute burst each: all six buckets
/// except stall are exercised (fig3-style traffic).
exp::ExperimentSpec broadcast_spec(bool record_trace) {
  exp::ExperimentSpec spec;
  spec.label = "bcast";
  spec.config.params = Params{6, 2, 4, 8};  // fig. 3's worked example
  spec.config.record_trace = record_trace;
  spec.make_program = []() -> runtime::Program {
    return [](Ctx ctx) -> Task {
      return [](Ctx c) -> Task {
        std::uint64_t value = c.proc() == 0 ? 0xabcd : 0;
        co_await runtime::coll::broadcast_binomial(c, &value);
        co_await c.compute(10 + 3 * c.proc());
      }(ctx);
    };
  };
  return spec;
}

/// Capacity flood: every processor hammers proc 0, which accepts as fast as
/// its receive port allows. ceil(L/g) in-flight fills immediately, so the
/// stall bucket is exercised.
exp::ExperimentSpec flood_spec(bool record_trace) {
  exp::ExperimentSpec spec;
  spec.label = "flood";
  spec.config.params = Params{12, 1, 3, 4};  // capacity ceil(12/3) = 4
  spec.config.record_trace = record_trace;
  spec.make_program = []() -> runtime::Program {
    return [](Ctx ctx) -> Task {
      return [](Ctx c) -> Task {
        if (c.proc() == 0) {
          for (int i = 0; i < 3 * 12; ++i) (void)co_await c.recv(7);
        } else {
          for (int i = 0; i < 12; ++i) co_await c.send(0, 7);
        }
      }(ctx);
    };
  };
  return spec;
}

void expect_signature_accounts_exactly(const exp::ExperimentSpec& spec) {
  runtime::Scheduler sched(spec.config);
  sched.set_program(spec.make_program());
  const Cycles finish = sched.run();
  const int P = spec.config.params.P;

  const obs::LogPProfile from_stats = obs::profile_machine(sched.machine());
  ASSERT_EQ(from_stats.total_cycles, finish);
  from_stats.check_invariant();

  // Grand total: sum over procs of sum over buckets == finish * P, exactly.
  Cycles grand = 0;
  for (const auto& sig : from_stats.procs) grand += sig.sum();
  EXPECT_EQ(grand, finish * P);

  // Independent rebuild from recorded intervals must agree bucket-for-bucket
  // (proves the recorder tiles the busy time with no overlap and no loss).
  const obs::LogPProfile from_trace =
      obs::profile_intervals(sched.machine().recorder(), P, finish);
  EXPECT_EQ(from_trace, from_stats);
}

TEST(Profiler, BroadcastAccountsEveryCycle) {
  expect_signature_accounts_exactly(broadcast_spec(/*record_trace=*/true));
}

TEST(Profiler, SaturatedFloodAccountsEveryCycle) {
  const auto spec = flood_spec(/*record_trace=*/true);
  expect_signature_accounts_exactly(spec);

  // The flood must actually have stalled — otherwise the test is vacuous.
  runtime::Scheduler sched(spec.config);
  sched.set_program(spec.make_program());
  sched.run();
  EXPECT_GT(sched.machine().total_stats().stall, 0);
}

TEST(Profiler, MachineMetricsSeeTheFlood) {
  auto spec = flood_spec(/*record_trace=*/false);
  obs::MetricsRegistry reg;
  spec.config.metrics = &reg;
  runtime::Scheduler sched(spec.config);
  sched.set_program(spec.make_program());
  sched.run();

  EXPECT_GT(reg.counter("sim.sends.stalled")->value(), 0);
  EXPECT_EQ(reg.gauge("sim.events")->value(),
            static_cast<std::int64_t>(sched.machine().events_processed()));
  EXPECT_EQ(reg.gauge("sim.msgs.sent")->value(),
            sched.machine().total_messages());
  EXPECT_GT(reg.counter("rt.tasks.spawned")->value(), 0);
}

TEST(Profiler, AttachingMetricsDoesNotChangeResults) {
  auto base = flood_spec(false);
  runtime::Scheduler plain(base.config);
  plain.set_program(base.make_program());
  const Cycles t_plain = plain.run();

  obs::MetricsRegistry reg;
  auto instrumented = flood_spec(false);
  instrumented.config.metrics = &reg;
  runtime::Scheduler wired(instrumented.config);
  wired.set_program(instrumented.make_program());
  const Cycles t_wired = wired.run();

  EXPECT_EQ(t_plain, t_wired);
  EXPECT_EQ(plain.machine().events_processed(),
            wired.machine().events_processed());
  EXPECT_EQ(plain.machine().total_stats().stall,
            wired.machine().total_stats().stall);
}

TEST(Profiler, InvariantViolationIsCaught) {
  obs::LogPProfile bad;
  bad.total_cycles = 100;
  bad.procs.resize(1);
  bad.procs[0].compute = 60;
  bad.procs[0].idle = 41;  // 101 != 100
  EXPECT_THROW(bad.check_invariant(), std::logic_error);
}

// ---- exporters -----------------------------------------------------------

TEST(ChromeTrace, ByteIdenticalAcrossSweepThreads) {
  std::vector<exp::ExperimentSpec> specs;
  for (int i = 0; i < 6; ++i)
    specs.push_back(i % 2 ? flood_spec(true) : broadcast_spec(true));

  const auto seq = exp::SweepRunner({1}).run(specs);
  const auto par = exp::SweepRunner({4}).run(specs);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    ASSERT_FALSE(seq[i].trace.empty());
    const int P = specs[i].config.params.P;
    const std::string a =
        obs::chrome_trace_json(seq[i].trace, P, specs[i].label);
    const std::string b =
        obs::chrome_trace_json(par[i].trace, P, specs[i].label);
    EXPECT_EQ(a, b) << "spec " << i << " trace differs across thread counts";
    EXPECT_EQ(par[i].profile, seq[i].profile);
  }
}

TEST(ChromeTrace, EmitsSlicesFlowsAndMetadata) {
  const auto spec = broadcast_spec(true);
  runtime::Scheduler sched(spec.config);
  sched.set_program(spec.make_program());
  sched.run();
  const std::string json = obs::chrome_trace_json(
      sched.machine().recorder(), spec.config.params.P, "bcast");

  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  // Every flow start has exactly one matching finish; a binomial broadcast
  // on P=8 carries 7 payload messages, so at least 7 flow pairs exist.
  std::size_t starts = 0, finishes = 0, pos = 0;
  while ((pos = json.find("\"ph\":\"s\"", pos)) != std::string::npos)
    ++starts, pos += 8;
  pos = 0;
  while ((pos = json.find("\"ph\":\"f\"", pos)) != std::string::npos)
    ++finishes, pos += 8;
  EXPECT_EQ(starts, finishes);
  EXPECT_GE(starts, 7u);
}

TEST(TraceCsv, SchemaIsParseable) {
  const auto spec = broadcast_spec(true);
  runtime::Scheduler sched(spec.config);
  sched.set_program(spec.make_program());
  sched.run();
  const std::string csv = trace::render_csv(sched.machine().recorder());

  std::istringstream lines(csv);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "proc,begin,end,activity,peer");
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    ++rows;
    // Exactly five comma-separated fields: tokens are comma-free by schema.
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 4) << line;
  }
  EXPECT_GT(rows, 0u);
}

// ---- packet-network telemetry --------------------------------------------

net::PacketSimConfig saturation_cfg(double rate) {
  net::PacketSimConfig cfg;
  cfg.injection_rate = rate;
  cfg.warmup = 500;
  cfg.duration = 4000;
  cfg.drain_limit = 60000;
  return cfg;
}

TEST(NetTelemetry, AttachingSinkDoesNotChangeResults) {
  const auto topo = net::make_hypercube(16);
  const auto cfg = saturation_cfg(0.01);
  const net::PacketSimResult plain = net::run_packet_sim(*topo, cfg);

  obs::NetTelemetry telem;
  telem.sample_every = 250;
  auto wired_cfg = cfg;
  wired_cfg.telemetry = &telem;
  const net::PacketSimResult wired = net::run_packet_sim(*topo, wired_cfg);

  EXPECT_EQ(plain.injected, wired.injected);
  EXPECT_EQ(plain.delivered, wired.delivered);
  EXPECT_EQ(plain.saturated, wired.saturated);
  EXPECT_EQ(plain.peak_in_flight, wired.peak_in_flight);
  EXPECT_EQ(plain.pool_slots, wired.pool_slots);
  EXPECT_EQ(plain.latency.mean(), wired.latency.mean());
  EXPECT_EQ(plain.p95_latency, wired.p95_latency);
}

TEST(NetTelemetry, LinkAccountingIsConsistent) {
  const auto topo = net::make_hypercube(16);
  auto cfg = saturation_cfg(0.01);
  obs::NetTelemetry telem;
  telem.sample_every = 250;
  cfg.telemetry = &telem;
  const net::PacketSimResult res = net::run_packet_sim(*topo, cfg);

  ASSERT_FALSE(telem.links.empty());
  EXPECT_GT(telem.horizon, 0);

  const Cycles service = cfg.hop_delay + cfg.phits;
  std::int64_t hops = 0;
  for (const auto& lt : telem.links) {
    EXPECT_GE(lt.packets, 0);
    EXPECT_EQ(lt.busy, lt.packets * service)
        << "fixed service time: busy must be packets * (r + phits)";
    EXPECT_GE(lt.queue_wait, 0);
    EXPECT_GE(lt.max_queue_wait, 0);
    EXPECT_LE(lt.utilization(telem.horizon), 1.0 + 1e-9);
    hops += lt.packets;
  }
  // Every delivered packet crossed at least one link.
  EXPECT_GE(hops, res.delivered);

  // The sampled series covers the horizon at the requested period.
  ASSERT_FALSE(telem.in_flight.empty());
  EXPECT_EQ(telem.in_flight.front().first, telem.sample_every);
  for (const auto& [t, n] : telem.in_flight) {
    EXPECT_GE(n, 0);
    EXPECT_LE(n, res.pool_slots);
  }

  // Rendered forms exist and carry the schema promised in the header.
  const std::string csv = telem.to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "u,v,channels,packets,busy,utilization,queue_wait,max_queue_wait,"
            "max_backlog,drops,retransmits,reroutes");
  EXPECT_NE(telem.render_links_table(5).find("util"), std::string::npos);
}

TEST(NetTelemetry, SaturatedRunShowsHotLinks) {
  // Hotspot traffic at an aggressive rate with a tight drain limit — the
  // same knobs test_packet_sim pins the saturation flag with.
  const auto topo = net::make_mesh2d(8, 8, /*torus=*/false);
  auto cfg = saturation_cfg(0.1);
  cfg.pattern = net::TrafficPattern::kHotspot;
  cfg.hotspot_fraction = 0.5;
  cfg.duration = 15000;
  cfg.drain_limit = 60000;
  obs::NetTelemetry telem;
  cfg.telemetry = &telem;
  const net::PacketSimResult res = net::run_packet_sim(*topo, cfg);

  EXPECT_TRUE(res.saturated);
  EXPECT_GT(telem.max_utilization(), 0.9)
      << "beyond the knee some link must be pinned near 100% busy";
  EXPECT_GT(telem.total_queue_wait(), 0);
  EXPECT_GT(telem.max_backlog(), 0);
}

// ---- CLI flags -------------------------------------------------------------

TEST(ObsCli, ConsumesOnlyHonouredFlags) {
  // A bench passes the obs flags it honours; every other obs flag stays in
  // argv so reject_unknown_flags turns it into exit 2 with usage instead of
  // a silent no-op (or an abort after the run).
  std::vector<std::string> args = {"prog",
                                   "--trace",
                                   "--profile",
                                   "--metrics-csv", "m.csv",
                                   "--trace-json", "t.json",
                                   "--links-csv=l.csv",
                                   "--whatif", "L=2x",
                                   "--critical-path", "c.json"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  int argc = static_cast<int>(argv.size());
  const obs::ObsFlags f = obs::obs_from_args(
      argc, argv.data(), obs::kProfileFlag | obs::kTraceJsonFlag);
  EXPECT_TRUE(f.profile);
  EXPECT_EQ(f.trace_json, "t.json");
  EXPECT_FALSE(f.trace);
  EXPECT_TRUE(f.metrics_csv.empty());
  EXPECT_TRUE(f.links_csv.empty());
  EXPECT_FALSE(f.wants_critpath());
  const std::vector<std::string> left(argv.begin() + 1, argv.begin() + argc);
  EXPECT_EQ(left,
            (std::vector<std::string>{"--trace", "--metrics-csv", "m.csv",
                                      "--links-csv=l.csv", "--whatif", "L=2x",
                                      "--critical-path", "c.json"}));
  EXPECT_EQ(exp::reject_unknown_flags(argc, argv.data(),
                                      "[--profile] [--trace-json FILE]"),
            2);
  // An honoured value flag with an empty or missing value is not consumed
  // either: `--trace-json=` must not silently write nothing.
  for (const std::vector<std::string>& bad :
       std::vector<std::vector<std::string>>{{"--trace-json="},
                                             {"--trace-json", ""},
                                             {"--metrics-csv="},
                                             {"--whatif="}}) {
    SCOPED_TRACE(::testing::PrintToString(bad));
    std::vector<std::string> all = {"prog"};
    all.insert(all.end(), bad.begin(), bad.end());
    std::vector<char*> av;
    for (std::string& a : all) av.push_back(a.data());
    int ac = static_cast<int>(av.size());
    const obs::ObsFlags none =
        obs::obs_from_args(ac, av.data(), obs::kMachineFlags);
    EXPECT_FALSE(none.any());
    EXPECT_EQ(std::vector<std::string>(av.begin() + 1, av.begin() + ac), bad);
  }
}

TEST(ObsCli, FlagSetsCoverTheirEmitters) {
  std::vector<std::string> args = {"prog",
                                   "--trace",
                                   "--profile",
                                   "--trace-json=t.json",
                                   "--metrics-csv", "m.csv",
                                   "--links-csv", "l.csv",
                                   "--whatif", "o=0.5x",
                                   "--critical-path=c.csv"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  int argc = static_cast<int>(argv.size());
  const obs::ObsFlags m =
      obs::obs_from_args(argc, argv.data(), obs::kMachineFlags);
  EXPECT_TRUE(m.trace && m.profile);
  EXPECT_EQ(m.trace_json, "t.json");
  EXPECT_EQ(m.metrics_csv, "m.csv");
  EXPECT_EQ(m.whatif, "o=0.5x");
  EXPECT_EQ(m.critical_path, "c.csv");
  // --links-csv is packet-level only: the machine set leaves it behind.
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "--links-csv");
  const obs::ObsFlags p =
      obs::obs_from_args(argc, argv.data(), obs::kPacketFlags);
  EXPECT_EQ(p.links_csv, "l.csv");
  EXPECT_EQ(argc, 1);
}

// ---- sweep integration ---------------------------------------------------

TEST(Sweep, RejectsSharedRegistryInParallel) {
  obs::MetricsRegistry reg;
  auto spec = broadcast_spec(false);
  spec.config.metrics = &reg;
  EXPECT_THROW(exp::SweepRunner({4}).run({spec, spec}), std::logic_error);
  // Sequential sweeps may attach one (runs execute one at a time).
  EXPECT_NO_THROW(exp::SweepRunner({1}).run({spec}));
}

}  // namespace
}  // namespace logp

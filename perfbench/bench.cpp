// Benchmark driver: runs one workload in one process on one thread through
// the library's public entry points, checks every output, and prints its raw
// measurements as one JSON line for perfbench/run.py to reduce.
//
//   logp_perfbench --workload NAME --seed N --seconds S [--trace] [--tiny]
//                  [--cold-only] [--expect-digest HEX] [--spans FILE]
//
// Each workload is a closed loop with one client: an iteration is one
// complete unit of user work on identical inputs, and the next iteration
// starts when the previous one returns. Iteration 0 is the cold, untimed
// one; the line "cold-done" is printed when it ends, so the parent can time
// process start to first result. Every later iteration must reproduce its
// digest and simulated counts exactly.
//
// --trace records a span around every call into the library (name, start,
// end, parent, iteration), attaches a MetricsRegistry to the packet engine,
// and reports the per-layer metrics computed from the spans and results.
// Untraced runs record nothing and attach no registry.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/fft.hpp"
#include "exp/sweep.hpp"
#include "fault/fault.hpp"
#include "mc/explorer.hpp"
#include "mc/scenarios.hpp"
#include "net/packet_sim.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace logp;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// FNV-1a over the bit patterns of every simulated result field.
class Digest {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t x) { add(static_cast<std::uint64_t>(x)); }
  void add(bool x) { add(std::uint64_t{x}); }
  void add(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) add(static_cast<std::uint64_t>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t x) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// ---------------------------------------------------------------- tracing

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;     ///< index into the span list, -1 for a root
  int iteration = -1;  ///< -1 for set-up, 0 for the cold iteration
};

/// In-memory span recorder; a no-op unless tracing is on.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  void set_iteration(int i) { iteration_ = i; }

  class Scope {
   public:
    Scope(Tracer& t, const char* name, const std::string& detail = {})
        : t_(t) {
      if (t_.on_) index_ = t_.open(detail.empty() ? name : name + ("." + detail));
    }
    ~Scope() {
      if (index_ >= 0) t_.close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int index_ = -1;
  };

  /// Duration minus the time its direct children cover (children of one
  /// span never overlap: everything runs on this thread).
  double self_ms(std::size_t i) const {
    std::int64_t ns = spans_[i].end_ns - spans_[i].start_ns;
    for (std::size_t j = i + 1; j < spans_.size(); ++j)
      if (spans_[j].parent == static_cast<int>(i))
        ns -= spans_[j].end_ns - spans_[j].start_ns;
    return static_cast<double>(ns) * 1e-6;
  }

  /// Per iteration >= 1: the summed duration (or self time) of the spans
  /// called `name`; iterations without such a span are skipped.
  std::vector<double> per_iteration_ms(const std::string& name,
                                       bool self = false) const {
    std::map<int, double> sums;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.name != name || s.iteration < 1) continue;
      sums[s.iteration] +=
          self ? self_ms(i) : static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    }
    std::vector<double> out;
    for (const auto& [it, ms] : sums) out.push_back(ms);
    return out;
  }

  /// Every single span called `name` (set-up and cold ones included).
  std::vector<double> each_ms(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name)
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    return out;
  }

  void write(const std::string& path, std::int64_t origin_ns) const {
    std::ofstream os(path);
    for (const Span& s : spans_)
      os << "{\"name\":\"" << s.name << "\",\"iteration\":" << s.iteration
         << ",\"parent\":" << s.parent
         << ",\"start_us\":" << (s.start_ns - origin_ns) / 1000
         << ",\"end_us\":" << (s.end_ns - origin_ns) / 1000 << "}\n";
  }

 private:
  int open(std::string name) {
    spans_.push_back({std::move(name), now_ns(), 0, current_, iteration_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int i) {
    spans_[static_cast<std::size_t>(i)].end_ns = now_ns();
    current_ = spans_[static_cast<std::size_t>(i)].parent;
  }

  bool on_;
  int iteration_ = -1;
  int current_ = -1;
  std::vector<Span> spans_;
};

using Layers = std::map<std::string, double>;

/// A simulated count, or 0 when the iteration that should have produced it
/// failed before it could (its failure is already counted).
double count_of(const Layers& counts, const std::string& name) {
  const auto it = counts.find(name);
  return it == counts.end() ? 0.0 : it->second;
}

/// What one iteration produced. `counts` are simulated quantities: they
/// must repeat exactly in every iteration and in traced and untraced runs.
struct Iteration {
  std::uint64_t digest = 0;
  double work = 0;
  std::vector<std::string> failures;
  Layers counts;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(Tracer&) {}
  virtual Iteration run(Tracer& tr) = 0;
  /// Traced runs only: extra calls made after an iteration, outside its
  /// timing (reference kernels, single-run costs).
  virtual void probe(Tracer&) {}
  /// Per-layer metrics derived from the spans and the last counts.
  virtual Layers layers(const Tracer& tr, const Layers& counts) const = 0;
};

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  util::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ULL + stream);
  return sm.next();
}

// ------------------------------------------------------------- fft_remap

/// Fig. 6 hybrid FFT on a CM-5: a naive and a staggered remap per
/// iteration, issued through a one-worker SweepRunner::map.
class FftRemap final : public Workload {
 public:
  FftRemap(bool tiny, std::uint64_t seed)
      : params_(Cm5::params(tiny ? 16 : 128)) {
    cfg_.n = tiny ? std::int64_t{1} << 10 : std::int64_t{1} << 18;
    cfg_.carry_data = true;
    cfg_.seed = derive_seed(seed, 1);
  }

  Iteration run(Tracer& tr) override {
    using runtime::coll::A2ASchedule;
    const auto job = [&](A2ASchedule sched, const char* label) {
      return std::function<algo::FftResult()>([&, sched, label] {
        Tracer::Scope js(tr, "exp.job");
        Tracer::Scope s(tr, "algo.run_hybrid_fft", label);
        algo::FftConfig cfg = cfg_;
        cfg.schedule = sched;
        return algo::run_hybrid_fft(params_, cfg);
      });
    };
    const std::vector<std::function<algo::FftResult()>> jobs = {
        job(A2ASchedule::kNaive, "naive"),
        job(A2ASchedule::kStaggered, "staggered")};
    std::vector<algo::FftResult> res;
    {
      Tracer::Scope s(tr, "exp.map");
      res = exp::SweepRunner({1, 1}).map(jobs);
    }

    Iteration it;
    Digest d;
    const std::int64_t per_remap = cfg_.n - cfg_.n / params_.P;
    for (const algo::FftResult& r : res) {
      d.add(r.phase1_end);
      d.add(r.remap_end);
      d.add(r.total);
      d.add(r.messages);
      d.add(r.stall_cycles);
      d.add(r.gap_wait_cycles);
      d.add(r.verified);
      if (!r.verified) it.failures.push_back("fft output not verified");
      if (r.messages != per_remap)
        it.failures.push_back("remap carried " + std::to_string(r.messages) +
                              " messages, expected " +
                              std::to_string(per_remap));
      it.counts["sim.messages"] += static_cast<double>(r.messages);
      it.counts["sim.stall_cycles"] += static_cast<double>(r.stall_cycles);
      it.counts["sim.gap_wait_cycles"] += static_cast<double>(r.gap_wait_cycles);
    }
    it.digest = d.value();
    it.work = it.counts["sim.messages"];
    return it;
  }

  /// The serial reference at the same n: the verification share of each
  /// run_hybrid_fft call.
  void probe(Tracer& tr) override {
    util::Xoshiro256StarStar rng(cfg_.seed);
    std::vector<std::complex<double>> a(static_cast<std::size_t>(cfg_.n));
    for (auto& v : a) v = {2.0 * rng.uniform01() - 1.0, 2.0 * rng.uniform01() - 1.0};
    Tracer::Scope s(tr, "algo.fft_dif");
    algo::fft_dif(a);
  }

  Layers layers(const Tracer& tr, const Layers& counts) const override {
    Layers l;
    l["exp.map_overhead_ms"] = median(tr.per_iteration_ms("exp.map", true));
    const double naive = median(tr.per_iteration_ms("algo.run_hybrid_fft.naive"));
    const double stag = median(tr.per_iteration_ms("algo.run_hybrid_fft.staggered"));
    const double dif = median(tr.per_iteration_ms("algo.fft_dif"));
    l["algo.fft_naive_ms"] = naive;
    l["algo.fft_staggered_ms"] = stag;
    l["algo.fft_dif_ms"] = dif;
    l["sim.msgs_per_s"] =
        count_of(counts, "sim.messages") / ((naive + stag - 2 * dif) * 1e-3);
    return l;
  }

 private:
  Params params_;
  algo::FftConfig cfg_;
};

// ---------------------------------------------------------------- packets

const char* const kNetCounters[] = {
    "net.kernel.simd_windows",   "net.kernel.faulted_simd_windows",
    "net.kernel.scalar_windows", "net.sort.counting_windows",
    "net.sort.radix_windows",    "net.wheel.pushes",
    "net.heap.spills"};

void digest_packet(Digest& d, const net::PacketSimResult& r) {
  d.add(r.latency.count());
  d.add(r.latency.mean());
  d.add(r.latency.m2());
  d.add(r.latency.sum());
  d.add(r.latency.min());
  d.add(r.latency.max());
  d.add(r.p95_latency);
  d.add(r.injected);
  d.add(r.delivered);
  d.add(r.offered_load);
  d.add(r.throughput);
  d.add(r.saturated);
  d.add(r.truncated);
  d.add(r.undrained);
  d.add(r.dropped);
  d.add(r.corrupted);
  d.add(r.retransmitted);
  d.add(r.rerouted);
  d.add(r.lost);
  d.add(r.peak_in_flight);
  d.add(r.pool_slots);
}

void check_packet(Iteration& it, const net::PacketSimResult& r) {
  if (r.truncated || r.saturated)
    it.failures.push_back("packet run truncated or saturated");
  // delivered counts the measurement window only, so it bounds rather
  // than completes the conservation sum.
  if (r.undrained != 0 || r.delivered + r.lost > r.injected)
    it.failures.push_back("packet conservation broken: injected " +
                          std::to_string(r.injected) + ", delivered " +
                          std::to_string(r.delivered) + ", lost " +
                          std::to_string(r.lost) + ", undrained " +
                          std::to_string(r.undrained));
  if (r.delivered <= 0) it.failures.push_back("no packet delivered");
}

/// One packet-engine run, with its engine counters when traced.
struct PacketRun {
  net::PacketSimResult result;
  Layers counters;
};

PacketRun run_packet(Tracer& tr, const net::Topology& topo,
                     net::PacketSimConfig cfg) {
  PacketRun run;
  obs::MetricsRegistry registry;
  if (tr.on()) cfg.metrics = &registry;
  {
    Tracer::Scope s(tr, "net.run_packet_sim");
    run.result = net::run_packet_sim(topo, cfg);
  }
  if (tr.on())
    for (const char* name : kNetCounters)
      run.counters[name] = static_cast<double>(registry.counter(name)->value());
  return run;
}

/// Shared by both packet workloads: sums the results of one iteration into
/// the per-layer counts.
void count_packets(Iteration& it, const std::vector<PacketRun>& runs) {
  Digest d;
  Layers& c = it.counts;
  for (const PacketRun& run : runs) {
    const net::PacketSimResult& r = run.result;
    digest_packet(d, r);
    check_packet(it, r);
    c["net.injected"] += static_cast<double>(r.injected);
    c["net.delivered"] += static_cast<double>(r.delivered);
    c["net.peak_in_flight"] =
        std::max(c["net.peak_in_flight"], static_cast<double>(r.peak_in_flight));
    c["net.pool_slots"] =
        std::max(c["net.pool_slots"], static_cast<double>(r.pool_slots));
    c["fault.dropped"] += static_cast<double>(r.dropped);
    c["fault.corrupted"] += static_cast<double>(r.corrupted);
    c["fault.retransmitted"] += static_cast<double>(r.retransmitted);
    c["fault.rerouted"] += static_cast<double>(r.rerouted);
    c["fault.lost"] += static_cast<double>(r.lost);
    for (const auto& [name, v] : run.counters) c[name] += v;
  }
  c["fault.goodput_ratio"] =
      c["net.delivered"] /
      (c["net.delivered"] + c["fault.dropped"] + c["fault.corrupted"]);
  it.digest = d.value();
  it.work = c["net.delivered"];
}

Layers packet_layers(const Tracer& tr, const Layers& counts) {
  Layers l;
  l["exp.map_overhead_ms"] = median(tr.per_iteration_ms("exp.map", true));
  l["net.topology_ms"] = median(tr.each_ms("net.make_mesh2d"));
  const double sim_ms = median(tr.per_iteration_ms("net.run_packet_sim"));
  l["net.run_packet_sim_ms"] = sim_ms;
  l["net.pkts_per_s"] = count_of(counts, "net.delivered") / (sim_ms * 1e-3);
  return l;
}

/// Fault-free uniform traffic on a torus, swept over injection rates from
/// the flat regime to the knee.
class PacketClean final : public Workload {
 public:
  PacketClean(bool tiny, std::uint64_t seed) : side_(tiny ? 8 : 32) {
    base_.seed = derive_seed(seed, 2);
    base_.sim_threads = 1;
    if (tiny) {
      base_.warmup = 200;
      base_.duration = 2000;
    }
  }

  void setup(Tracer& tr) override {
    Tracer::Scope s(tr, "net.make_mesh2d");
    topo_ = net::make_mesh2d(side_, side_, true);
  }

  Iteration run(Tracer& tr) override {
    std::vector<std::function<PacketRun()>> jobs;
    for (const double rate : {0.005, 0.01, 0.02})
      jobs.emplace_back([&, rate] {
        Tracer::Scope js(tr, "exp.job");
        net::PacketSimConfig cfg = base_;
        cfg.injection_rate = rate;
        return run_packet(tr, *topo_, cfg);
      });
    std::vector<PacketRun> runs;
    {
      Tracer::Scope s(tr, "exp.map");
      runs = exp::SweepRunner({1, 1}).map(jobs);
    }
    Iteration it;
    count_packets(it, runs);
    for (const PacketRun& run : runs)
      if (run.result.dropped + run.result.corrupted + run.result.lost != 0)
        it.failures.push_back("fault counts on a fault-free run");
    return it;
  }

  Layers layers(const Tracer& tr, const Layers& counts) const override {
    return packet_layers(tr, counts);
  }

 private:
  int side_;
  net::PacketSimConfig base_;
  std::unique_ptr<net::Topology> topo_;
};

/// The faulted-kernel plan of perf_engine's BM_PacketSimFaulted at rate
/// 0.05, with fault-aware rerouting on.
class PacketFaulted final : public Workload {
 public:
  PacketFaulted(bool tiny, std::uint64_t seed) : side_(tiny ? 8 : 16) {
    cfg_.injection_rate = 0.05;
    cfg_.duration = tiny ? 2000 : 20000;
    cfg_.seed = derive_seed(seed, 2);
    cfg_.sim_threads = 1;
    cfg_.reroute = true;
    plan_.seed = derive_seed(seed, 3);
    plan_.drop_rate = 0.02;
    plan_.corrupt_rate = 0.005;
    plan_.retry_timeout = 4 * net::lookahead(cfg_);
    plan_.max_retries = 4;
    plan_.link_faults.push_back({0, 1, 0, cfg_.duration / 2, 3});
    plan_.link_faults.push_back({17, 18, cfg_.duration / 4, cfg_.duration, 0});
    plan_.validate();
    cfg_.faults = &plan_;
  }

  void setup(Tracer& tr) override {
    Tracer::Scope s(tr, "net.make_mesh2d");
    topo_ = net::make_mesh2d(side_, side_, true);
  }

  Iteration run(Tracer& tr) override {
    Iteration it;
    count_packets(it, {run_packet(tr, *topo_, cfg_)});
    return it;
  }

  Layers layers(const Tracer& tr, const Layers& counts) const override {
    return packet_layers(tr, counts);
  }

 private:
  int side_;
  net::PacketSimConfig cfg_;
  fault::FaultPlan plan_;
  std::unique_ptr<net::Topology> topo_;
};

// ------------------------------------------------------------- mc_explore

struct McCase {
  std::string label;  ///< per-layer metric prefix: mc.<label>.*
  mc::ScenarioConfig cfg;
  bool expect_violation = false;
};

/// mc::explore on one thread over fixed configs from MCCHECK_BASELINE.json,
/// plus the dedup mutant, which must be caught. No random input: the seed
/// does not reach this workload.
class McExplore final : public Workload {
 public:
  explicit McExplore(bool tiny) {
    const auto add = [&](const char* label, const char* scenario, int P,
                         int latency_min) {
      McCase c{label, mc::scenario_defaults(scenario, P), false};
      c.cfg.latency_min = latency_min;
      cases_.push_back(c);
      return &cases_.back();
    };
    add("detector", "detector", tiny ? 2 : 4, -1);
    add("rejoin", "rejoin", tiny ? 2 : 3, 0);
    add("reliable_broadcast", "reliable_broadcast", tiny ? 2 : 4, 0);
    add("retransmit_race", "retransmit_race", tiny ? 2 : 3, 0);
    McCase* mutant = add("send_ack_mutant", "send_ack", 2, -1);
    mutant->cfg.mutate_no_dedup = true;
    mutant->expect_violation = true;
  }

  Iteration run(Tracer& tr) override {
    Iteration it;
    Digest d;
    mc::ExplorerOptions opts;
    opts.threads = 1;
    for (const McCase& c : cases_) {
      mc::ExplorerResult r;
      {
        Tracer::Scope s(tr, "mc.explore", c.label);
        r = mc::explore(c.cfg, opts);
      }
      d.add(c.label);
      d.add(r.capped);
      d.add(r.max_depth);
      d.add(static_cast<std::int64_t>(r.violations.size()));
      for (const mc::Violation& v : r.violations) {
        d.add(static_cast<std::int64_t>(v.choices.size()));
        for (const int choice : v.choices) d.add(static_cast<std::int64_t>(choice));
        d.add(static_cast<std::int64_t>(v.failures.size()));
        for (const std::string& f : v.failures) d.add(f);
      }
      if (r.capped) it.failures.push_back(c.label + ": exploration capped");
      if (c.expect_violation && r.violations.empty())
        it.failures.push_back(c.label + ": seeded bug not caught");
      if (!c.expect_violation && !r.violations.empty())
        it.failures.push_back(c.label + ": unexpected violation");
      const std::string p = "mc." + c.label + ".";
      it.counts[p + "runs"] = static_cast<double>(r.runs);
      it.counts[p + "choice_points"] = static_cast<double>(r.choice_points);
      it.counts[p + "pruned"] = static_cast<double>(r.pruned);
      it.counts[p + "prune_ratio"] =
          static_cast<double>(r.pruned) / static_cast<double>(r.runs + r.pruned);
    }
    it.digest = d.value();
    it.work = static_cast<double>(cases_.size());
    return it;
  }

  /// The sim+runtime share of one explored run: a plain run_scenario with
  /// a null oracle, repeated for a stable median.
  void probe(Tracer& tr) override {
    for (const McCase& c : cases_)
      for (int k = 0; k < kScenarioRepeats; ++k) {
        Tracer::Scope s(tr, "mc.run_scenario", c.label);
        mc::run_scenario(c.cfg, nullptr);
      }
  }

  Layers layers(const Tracer& tr, const Layers& counts) const override {
    Layers l;
    for (const McCase& c : cases_) {
      const std::string p = "mc." + c.label + ".";
      const double ms = median(tr.per_iteration_ms("mc.explore." + c.label));
      l[p + "explore_ms"] = ms;
      l[p + "run_us"] = ms * 1e3 / count_of(counts, p + "runs");
      l[p + "run_scenario_us"] =
          median(tr.each_ms("mc.run_scenario." + c.label)) * 1e3;
    }
    return l;
  }

 private:
  static constexpr int kScenarioRepeats = 32;
  std::vector<McCase> cases_;
};

// ---------------------------------------------------------------- host ref

/// Runs the host-speed reference kernel (perfbench/hostref.cpp, installed
/// next to this program) in a fresh process and returns its time. A fresh
/// process keeps the probe independent of this process's heap, and so of
/// the workload and of the library. Not a workload: the probe runs while
/// this thread waits, and calls no library code.
class HostRef {
 public:
  HostRef() {
    std::vector<char> buf(4096);
    const ssize_t n = readlink("/proc/self/exe", buf.data(), buf.size() - 1);
    if (n <= 0) throw std::runtime_error("cannot locate this program");
    const std::string self(buf.data(), static_cast<std::size_t>(n));
    exe_ = self.substr(0, self.rfind('/') + 1) + "logp_hostref";
  }

  double probe_ms() const {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("host probe: pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    char* const argv[] = {const_cast<char*>(exe_.c_str()), nullptr};
    pid_t pid = 0;
    const int err = posix_spawn(&pid, exe_.c_str(), &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string out;
    char chunk[64];
    ssize_t n = 0;
    while (err == 0 && (n = read(fds[0], chunk, sizeof chunk)) > 0)
      out.append(chunk, static_cast<std::size_t>(n));
    close(fds[0]);
    int status = 0;
    if (err != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0 || out.empty())
      throw std::runtime_error("host probe " + exe_ + " failed");
    return std::stod(out);
  }

 private:
  std::string exe_;
};

// ------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool cold_only = false;
  std::string expect_digest;
  std::string spans;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (f == "--workload") a.workload = value();
    else if (f == "--seed") a.seed = std::stoull(value());
    else if (f == "--seconds") a.seconds = std::stod(value());
    else if (f == "--trace") a.trace = true;
    else if (f == "--tiny") a.tiny = true;
    else if (f == "--cold-only") a.cold_only = true;
    else if (f == "--expect-digest") a.expect_digest = value();
    else if (f == "--spans") a.spans = value();
    else {
      std::fprintf(stderr, "logp_perfbench: unknown argument '%s'\n", f.c_str());
      return false;
    }
  }
  return !a.workload.empty();
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "fft_remap") return std::make_unique<FftRemap>(a.tiny, a.seed);
  if (a.workload == "packet_clean")
    return std::make_unique<PacketClean>(a.tiny, a.seed);
  if (a.workload == "packet_faulted")
    return std::make_unique<PacketFaulted>(a.tiny, a.seed);
  if (a.workload == "mc_explore") return std::make_unique<McExplore>(a.tiny);
  return nullptr;
}

double cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void print_array(const char* key, const std::vector<double>& v) {
  std::printf("\"%s\":[", key);
  for (std::size_t i = 0; i < v.size(); ++i)
    std::printf("%s%.6f", i ? "," : "", v[i]);
  std::printf("]");
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t start = now_ns();
  Args args;
  try {
    if (!parse(argc, argv, args)) {
      std::fprintf(stderr, "usage: logp_perfbench --workload NAME [--seed N] "
                           "[--seconds S] [--trace] [--tiny] [--cold-only] "
                           "[--expect-digest HEX] [--spans FILE]\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "logp_perfbench: bad argument: %s\n", e.what());
    return 2;
  }
  const std::unique_ptr<Workload> w = make_workload(args);
  if (!w) {
    std::fprintf(stderr, "logp_perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  std::unique_ptr<HostRef> host;
  try {
    host = std::make_unique<HostRef>();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "logp_perfbench: %s\n", e.what());
    return 1;
  }

  Tracer tr(args.trace);
  std::int64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  std::uint64_t cold_digest = 0;
  Layers cold_counts, counts;
  double work = 0;
  std::vector<double> iter_ms, ref_ms;
  double cpu_per_wall = 0, process_per_thread = 0;

  // Runs iteration i and its checks; any failure counts the iteration once.
  const auto iterate = [&](int i) {
    tr.set_iteration(i);
    Iteration it;
    try {
      Tracer::Scope s(tr, "iteration");
      it = w->run(tr);
    } catch (const std::exception& e) {
      it.failures.push_back(std::string("threw: ") + e.what());
    }
    if (i == 0) {
      cold_digest = it.digest;
      cold_counts = it.counts;
    } else {
      if (it.digest != cold_digest)
        it.failures.push_back("digest differs from the cold iteration");
      if (it.counts != cold_counts)
        it.failures.push_back("simulated counts differ from the cold iteration");
    }
    if (!args.expect_digest.empty() && hex(it.digest) != args.expect_digest)
      it.failures.push_back("digest " + hex(it.digest) + " != committed " +
                            args.expect_digest);
    ++attempted;
    if (!it.failures.empty()) {
      ++failed;
      for (const std::string& f : it.failures)
        if (failures.size() < 8) failures.push_back(f);
    }
    work = it.work;
    counts = it.counts;
  };

  tr.set_iteration(-1);
  try {
    w->setup(tr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "logp_perfbench: set-up failed: %s\n", e.what());
    return 1;
  }
  iterate(0);
  std::printf("cold-done\n");
  std::fflush(stdout);

  // Host speed right after set-up (the first three probes), then after
  // every timed iteration: iteration i lies between probes i + 1 and i + 2.
  // Host facts behind the bounds, over the timed iterations alone: the loop
  // is one busy thread (process CPU time equals this thread's), and it is
  // not preempted (thread CPU time equals wall time).
  double thread_cpu = 0, process_cpu = 0;
  try {
    for (int k = 0; k < 3; ++k) ref_ms.push_back(host->probe_ms());
    const std::int64_t loop_start = now_ns();
    const std::int64_t budget = static_cast<std::int64_t>(args.seconds * 1e9);
    for (int i = 1; !args.cold_only && (i == 1 || now_ns() - loop_start < budget);
         ++i) {
      const double thread0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
      const double process0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
      const std::int64_t t0 = now_ns();
      iterate(i);
      iter_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      thread_cpu += cpu_s(CLOCK_THREAD_CPUTIME_ID) - thread0;
      process_cpu += cpu_s(CLOCK_PROCESS_CPUTIME_ID) - process0;
      if (tr.on()) w->probe(tr);
      ref_ms.push_back(host->probe_ms());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "logp_perfbench: %s\n", e.what());
    return 1;
  }
  if (!iter_ms.empty()) {
    double wall_ms = 0;
    for (const double ms : iter_ms) wall_ms += ms;
    cpu_per_wall = thread_cpu / (wall_ms * 1e-3);
    process_per_thread = process_cpu / thread_cpu;
  }

  Layers layers;
  if (tr.on() && !args.cold_only) {
    layers = counts;
    for (const auto& [k, v] : w->layers(tr, counts)) layers[k] = v;
    if (!args.spans.empty()) tr.write(args.spans, start);
  }

  std::printf("{\"workload\":\"%s\",\"attempted\":%lld,\"failed\":%lld,",
              args.workload.c_str(), static_cast<long long>(attempted),
              static_cast<long long>(failed));
  std::printf("\"digest\":\"%s\",\"work_per_iter\":%.17g,\"peak_rss_mb\":%.3f,",
              hex(cold_digest).c_str(), work, peak_rss_mb());
  std::printf("\"thread_cpu_per_wall\":%.4f,\"process_cpu_per_thread\":%.4f,",
              cpu_per_wall, process_per_thread);
  print_array("iter_ms", iter_ms);
  std::printf(",");
  print_array("host_ref_ms", ref_ms);
  std::printf(",\"failures\":[");
  for (std::size_t i = 0; i < failures.size(); ++i)
    std::printf("%s\"%s\"", i ? "," : "", json_escape(failures[i]).c_str());
  std::printf("],\"layers\":{");
  bool first = true;
  for (const auto& [k, v] : layers) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", k.c_str(),
                std::isfinite(v) ? v : 0.0);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

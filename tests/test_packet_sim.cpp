// Pins the packet-level network simulator's core contracts:
//
//  * Zero allocation on the hot path: pooled packet slots recycle (no growth
//    after warmup) and pre-reserved capacities absorb 4x the workload with
//    O(1) extra allocations (counted by a replacement operator new).
//  * Golden byte-identity: results are bit-for-bit reproducible. The golden
//    values below were captured under the canonical (time, injection-id)
//    event order — they pin today's trajectory against accidental change.
//  * Reference identity: the golden, pattern x topology, saturation and
//    fault-family tests also diff every result field against a serial
//    simulator defined below — one priority queue over that canonical
//    order, no windows or reroute.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <queue>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "net/packet_sim.hpp"
#include "net/topology.hpp"
#include "obs/net_telemetry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

// ---- Counting allocator guard (this TU is its own test binary) ----------

namespace {
std::atomic<long long> g_allocs{0};
}

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace logp::net {
namespace {

PacketSimConfig golden_config(TrafficPattern p) {
  PacketSimConfig cfg;
  cfg.pattern = p;
  cfg.injection_rate = 0.02;
  cfg.duration = 10000;
  return cfg;
}

// ---- Serial reference simulator ------------------------------------------
//
// An oracle that shares none of the engine's machinery: every pending event
// sits in one priority queue keyed (time, injection id) and is processed
// strictly in that canonical order. There are no windows, wheels, sorts,
// link chains, outcome records or rerouting, and it reaches the
// library only through public API: Topology routing, the scalar FaultPlan
// predicates, the RNG and the stats types.

/// The traffic patterns of TrafficPattern, drawing exactly what the engine
/// draws from the workload RNG.
int reference_destination(const PacketSimConfig& cfg, int src, int P,
                          util::Xoshiro256StarStar& rng) {
  switch (cfg.pattern) {
    case TrafficPattern::kTranspose: {
      int side = 1;
      while (side * side < P) ++side;
      if (side * side == P) {  // non-square falls back to uniform
        const int d = (src % side) * side + src / side;
        return d == src ? (src + 1) % P : d;
      }
      break;
    }
    case TrafficPattern::kBitReverse:
      if ((P & (P - 1)) == 0) {
        int d = 0;
        for (int b = 1, r = P >> 1; b < P; b <<= 1, r >>= 1)
          if (src & b) d |= r;
        return d == src ? (src + 1) % P : d;
      }
      break;
    case TrafficPattern::kNeighbor:
      return (src + 1) % P;
    case TrafficPattern::kHotspot:
      if (src != 0 && rng.uniform01() < cfg.hotspot_fraction) return 0;
      break;
    case TrafficPattern::kUniform:
      break;
  }
  const int dst =
      static_cast<int>(rng.uniform(static_cast<std::uint64_t>(P - 1)));
  return dst >= src ? dst + 1 : dst;
}

PacketSimResult reference_packet_sim(const Topology& topo,
                                     const PacketSimConfig& cfg) {
  EXPECT_FALSE(cfg.reroute) << "the reference simulator never reroutes";
  const fault::FaultPlan* fp =
      cfg.faults != nullptr && cfg.faults->has_packet_faults() ? cfg.faults
                                                               : nullptr;
  const int P = topo.num_endpoints();
  const Cycles service = lookahead(cfg);
  PacketSimResult r;
  r.offered_load = cfg.injection_rate;

  // Open-loop Bernoulli sources, endpoint by endpoint. Fault-plan jitter is
  // a hash (no RNG draw), clamped to keep each endpoint's stream strictly
  // increasing. The (born, src) order is the injection id.
  struct Injection {
    Cycles born;
    int src, dst;
  };
  std::vector<Injection> inj;
  util::Xoshiro256StarStar rng(cfg.seed);
  const Cycles inject_end = cfg.warmup + cfg.duration;
  for (int e = 0; e < P; ++e) {
    Cycles last = -1;
    for (Cycles t = rng.geometric(cfg.injection_rate); t < inject_end;
         t += rng.geometric(cfg.injection_rate)) {
      const int dst = reference_destination(cfg, e, P, rng);
      Cycles born = t;
      if (fp != nullptr && fp->max_injection_delay > 0)
        born = std::max(t + fp->injection_delay(e, t), last + 1);
      last = born;
      inj.push_back({born, e, dst});
    }
  }
  std::sort(inj.begin(), inj.end(), [](const Injection& a, const Injection& b) {
    return a.born != b.born ? a.born < b.born : a.src < b.src;
  });
  r.injected = static_cast<std::int64_t>(inj.size());

  // Directed links with one free-at cycle per parallel channel, and each
  // packet's deterministic route as the links it crosses.
  struct Link {
    int u, v;
    std::vector<Cycles> free_at;
  };
  std::map<std::pair<int, int>, Link> links;
  std::vector<std::vector<Link*>> routes(inj.size());
  for (std::size_t i = 0; i < inj.size(); ++i) {
    const int goal = topo.endpoint_node(inj[i].dst);
    for (int cur = topo.endpoint_node(inj[i].src); cur != goal;) {
      const int next = topo.next_hop(cur, inj[i].dst);
      auto [it, fresh] = links.try_emplace({cur, next});
      if (fresh) {
        const auto channels =
            static_cast<std::size_t>(topo.link_multiplicity(cur, next));
        it->second = {cur, next, std::vector<Cycles>(channels, 0)};
      }
      routes[i].push_back(&it->second);
      cur = next;
    }
  }

  // A packet's next event: arrival at route[hop], or at its destination
  // once hop == route length. A packet has one pending event at a time, so
  // (t, id) is a total order.
  struct Event {
    Cycles t;
    std::int64_t id;
    int hop;
    int attempt;
    bool operator>(const Event& o) const {
      return t != o.t ? t > o.t : id > o.id;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> q;
  for (std::size_t i = 0; i < inj.size(); ++i)
    q.push({inj[i].born, static_cast<std::int64_t>(i), 0, 0});

  util::Histogram histo(0, 64.0 * static_cast<double>(service) *
                               static_cast<double>(topo.num_nodes()),
                        4096);
  std::int64_t in_flight = 0;
  std::int64_t completed = 0;
  while (!q.empty() && q.top().t <= cfg.drain_limit) {
    const Event e = q.top();
    q.pop();
    const std::vector<Link*>& route = routes[static_cast<std::size_t>(e.id)];
    if (e.hop == 0 && e.attempt == 0)
      r.peak_in_flight = std::max(r.peak_in_flight, ++in_flight);
    // A lost attempt re-dispatches from hop 0 after the timeout while
    // retries remain; otherwise the packet is abandoned.
    const auto lose = [&] {
      if (fp->retry_timeout > 0 && e.attempt < fp->max_retries) {
        ++r.retransmitted;
        q.push({e.t + fp->retry_timeout, e.id, 0, e.attempt + 1});
      } else {
        ++r.lost;
        --in_flight;
      }
    };
    if (e.hop == static_cast<int>(route.size())) {
      if (fp != nullptr && fp->corrupt_attempt(e.id, e.attempt)) {
        ++r.corrupted;
        lose();
        continue;
      }
      if (e.t >= cfg.warmup && e.t < inject_end) ++r.delivered;
      const Cycles born = inj[static_cast<std::size_t>(e.id)].born;
      if (born >= cfg.warmup) {
        const auto lat = static_cast<double>(e.t - born);
        r.latency.add(lat);
        histo.add(lat);
      }
      ++completed;
      --in_flight;
      continue;
    }
    Link& l = *route[static_cast<std::size_t>(e.hop)];
    const int deg = fp != nullptr ? fp->link_degrade(l.u, l.v, e.t) : 1;
    if (fp != nullptr &&
        (deg == 0 ||
         (fp->drop_attempt(e.id, e.attempt) &&
          e.hop ==
              fp->drop_hop(e.id, e.attempt, static_cast<int>(route.size()))))) {
      ++r.dropped;
      lose();
      continue;
    }
    // Store-and-forward on the earliest-free channel (which of several
    // equal-cycle channels is unobservable: they are interchangeable); a
    // degraded link multiplies the service time.
    Cycles& free_at = *std::min_element(l.free_at.begin(), l.free_at.end());
    free_at = std::max(e.t, free_at) + service * deg;
    q.push({free_at, e.id, e.hop + 1, e.attempt});
  }
  // Whatever is still queued lies past the drain limit: the run gave up.
  r.saturated = !q.empty();
  r.truncated = r.saturated;
  r.undrained = r.injected - completed - r.lost;
  r.pool_slots = r.peak_in_flight;
  r.p95_latency = histo.quantile(0.95);
  r.throughput = static_cast<double>(r.delivered) /
                 static_cast<double>(cfg.duration) / static_cast<double>(P);
  return r;
}

/// Exact equality of every PacketSimResult field.
void expect_same_result(const PacketSimResult& a, const PacketSimResult& b) {
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.offered_load, b.offered_load);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.undrained, b.undrained);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.retransmitted, b.retransmitted);
  EXPECT_EQ(a.rerouted, b.rerouted);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.peak_in_flight, b.peak_in_flight);
  EXPECT_EQ(a.pool_slots, b.pool_slots);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.latency.m2(), b.latency.m2());
  EXPECT_EQ(a.latency.sum(), b.latency.sum());
  EXPECT_EQ(a.latency.min(), b.latency.min());
  EXPECT_EQ(a.latency.max(), b.latency.max());
  EXPECT_EQ(a.p95_latency, b.p95_latency);
  EXPECT_EQ(a.throughput, b.throughput);
}

TEST(PacketSim, FreelistRecyclesDeliveredSlots) {
  const auto topo = make_mesh2d(8, 8, true);
  PacketSimConfig cfg;
  cfg.injection_rate = 0.02;
  cfg.duration = 40000;  // long churn: many generations through the pool
  const auto r = run_packet_sim(*topo, cfg);
  // Slots are created only when the freelist is empty, so the store's size
  // is exactly the peak number of simultaneously in-flight packets...
  EXPECT_EQ(r.pool_slots, r.peak_in_flight);
  // ...which is far below the packet count: delivered slots were recycled.
  EXPECT_GT(r.injected, 10000);
  EXPECT_LT(r.pool_slots, r.injected / 10);
}

TEST(PacketSim, PoolDoesNotGrowAfterWarmup) {
  const auto topo = make_mesh2d(8, 8, true);
  PacketSimConfig cfg;
  cfg.injection_rate = 0.02;
  // Same load, 4x the duration: 4x the packets must reuse the same
  // steady-state slot population (peak concurrency is load-bound, not
  // duration-bound). Allow slack for the tail of the arrival distribution.
  PacketSimConfig cfg4 = cfg;
  cfg4.duration = 4 * cfg.duration;
  const auto r1 = run_packet_sim(*topo, cfg);
  const auto r4 = run_packet_sim(*topo, cfg4);
  EXPECT_GT(r4.injected, 3 * r1.injected);
  EXPECT_LT(r4.pool_slots, 2 * r1.pool_slots);
}

TEST(PacketSim, SteadyStateIsAllocationFree) {
  // Every hot-path container pre-reserves from the config's capacity bound,
  // so quadrupling the workload must not add more than a handful of
  // allocations (fixed per-run setup is identical in both). kNeighbor keeps
  // the route/link working set constant across durations.
  const auto topo = make_mesh2d(8, 8, true);
  PacketSimConfig cfg;
  cfg.pattern = TrafficPattern::kNeighbor;
  cfg.injection_rate = 0.02;
  cfg.duration = 10000;
  PacketSimConfig cfg4 = cfg;
  cfg4.duration = 4 * cfg.duration;
  (void)run_packet_sim(*topo, cfg);  // warm anything lazy outside the sim
  const long long before1 = g_allocs.load();
  (void)run_packet_sim(*topo, cfg);
  const long long a1 = g_allocs.load() - before1;
  const long long before4 = g_allocs.load();
  (void)run_packet_sim(*topo, cfg4);
  const long long a4 = g_allocs.load() - before4;
  EXPECT_LE(a4, a1 + 8) << "4x duration should not grow hot-path buffers";
  // And the per-run allocation budget itself is fixed-size setup, far from
  // the O(packets) of a per-packet-allocating implementation.
  EXPECT_LT(a4, 200);

  // The faulted steady state honours the same bound: the link-degrade memo,
  // the per-link chains and the radix-sort ping-pong buffers are all
  // reserved up front, so 4x the drops/retries/degraded traffic must not
  // allocate either.
  fault::FaultPlan plan;
  plan.drop_rate = 0.02;
  plan.corrupt_rate = 0.005;
  plan.retry_timeout = 4 * lookahead(cfg);
  plan.max_retries = 4;
  plan.link_faults.push_back({0, 1, 0, cfg4.duration, 3});
  PacketSimConfig fcfg = cfg;
  fcfg.faults = &plan;
  PacketSimConfig fcfg4 = cfg4;
  fcfg4.faults = &plan;
  (void)run_packet_sim(*topo, fcfg);
  const long long beforef1 = g_allocs.load();
  (void)run_packet_sim(*topo, fcfg);
  const long long f1 = g_allocs.load() - beforef1;
  const long long beforef4 = g_allocs.load();
  const auto rf4 = run_packet_sim(*topo, fcfg4);
  const long long f4 = g_allocs.load() - beforef4;
  EXPECT_GT(rf4.dropped + rf4.corrupted, 0)
      << "the plan must actually fire for this to test the faulted path";
  EXPECT_LE(f4, f1 + 8) << "faulted 4x duration should not grow buffers";
  EXPECT_LT(f4, 240);
}

struct Golden {
  std::int64_t injected;
  std::int64_t delivered;
  bool saturated;
  double mean, variance, min, max, p95;
};

/// Captured from the serial reference engine under the canonical
/// (time, injection-id) event order (torus 8x8, rate 0.02, duration 10000,
/// default seed). Exact doubles: the simulator is integer-cycle arithmetic
/// plus a fixed-order deterministic accumulation, so any drift — including
/// from the engine's batched reduction — is a bug, not noise.
const Golden kGolden[] = {
    {15204, 12737, false, 0x1.b339aa9613c96p+5, 0x1.1012a7b069c8dp+9,
     0x1.8p+3, 0x1.44p+7, 0x1.7e242c14e1784p+6},  // uniform
    {15223, 12668, false, 0x1.307daa9e9931p+7, 0x1.d0a45f3a44308p+13,
     0x1.8p+3, 0x1.8ap+9, 0x1.9ba5999999996p+8},  // transpose
    {15223, 12634, false, 0x1.51ae228c55951p+7, 0x1.952716ef8d04ap+14,
     0x1.8p+3, 0x1.eb8p+9, 0x1.fd66666666663p+8},  // bit-reverse
    {15223, 12672, false, 0x1.e9b008ba5bad9p+3, 0x1.0d55118afa752p+5,
     0x1.8p+3, 0x1.08p+6, 0x1.04e4c759acc86p+5},  // neighbor
    {15383, 11926, false, 0x1.d1a50d0168e53p+9, 0x1.0bdea69976c85p+22,
     0x1.8p+3, 0x1.33ap+13, 0x1.86e199999999p+12},  // hotspot
};

const TrafficPattern kPatterns[] = {
    TrafficPattern::kUniform, TrafficPattern::kTranspose,
    TrafficPattern::kBitReverse, TrafficPattern::kNeighbor,
    TrafficPattern::kHotspot};

TEST(PacketSim, ByteIdenticalToGoldenRunPerPattern) {
  const auto topo = make_mesh2d(8, 8, true);
  for (std::size_t i = 0; i < std::size(kPatterns); ++i) {
    SCOPED_TRACE(traffic_pattern_name(kPatterns[i]));
    const PacketSimConfig cfg = golden_config(kPatterns[i]);
    const auto r = run_packet_sim(*topo, cfg);
    expect_same_result(reference_packet_sim(*topo, cfg), r);
    const Golden& g = kGolden[i];
    EXPECT_EQ(r.injected, g.injected);
    EXPECT_EQ(r.delivered, g.delivered);
    EXPECT_EQ(r.saturated, g.saturated);
    // None of these golden runs hits the drain limit, and no fault plan is
    // attached: the truncation/fault surface must stay all-zero.
    EXPECT_FALSE(r.truncated);
    EXPECT_EQ(r.undrained, 0);
    EXPECT_EQ(r.dropped, 0);
    EXPECT_EQ(r.corrupted, 0);
    EXPECT_EQ(r.retransmitted, 0);
    EXPECT_EQ(r.lost, 0);
    EXPECT_EQ(r.latency.mean(), g.mean);
    EXPECT_EQ(r.latency.variance(), g.variance);
    EXPECT_EQ(r.latency.min(), g.min);
    EXPECT_EQ(r.latency.max(), g.max);
    EXPECT_EQ(r.p95_latency, g.p95);
  }
}

/// Full-surface equality: every result field plus the complete telemetry
/// (per-link rows in id order and the sampled in-flight series).
void expect_identical(const PacketSimResult& a, const obs::NetTelemetry& ta,
                      const PacketSimResult& b, const obs::NetTelemetry& tb) {
  expect_same_result(a, b);
  EXPECT_EQ(ta.horizon, tb.horizon);
  ASSERT_EQ(ta.links.size(), tb.links.size());
  for (std::size_t i = 0; i < ta.links.size(); ++i) {
    const auto& la = ta.links[i];
    const auto& lb = tb.links[i];
    EXPECT_EQ(la.u, lb.u) << "link " << i;
    EXPECT_EQ(la.v, lb.v) << "link " << i;
    EXPECT_EQ(la.channels, lb.channels) << "link " << i;
    EXPECT_EQ(la.packets, lb.packets) << "link " << i;
    EXPECT_EQ(la.busy, lb.busy) << "link " << i;
    EXPECT_EQ(la.queue_wait, lb.queue_wait) << "link " << i;
    EXPECT_EQ(la.max_queue_wait, lb.max_queue_wait) << "link " << i;
    EXPECT_EQ(la.max_backlog, lb.max_backlog) << "link " << i;
    EXPECT_EQ(la.drops, lb.drops) << "link " << i;
    EXPECT_EQ(la.retransmits, lb.retransmits) << "link " << i;
    EXPECT_EQ(la.reroutes, lb.reroutes) << "link " << i;
  }
  ASSERT_EQ(ta.reroutes.size(), tb.reroutes.size());
  for (std::size_t i = 0; i < ta.reroutes.size(); ++i) {
    EXPECT_EQ(ta.reroutes[i].first, tb.reroutes[i].first)
        << "reroute sample " << i;
    EXPECT_EQ(ta.reroutes[i].second, tb.reroutes[i].second)
        << "reroute sample " << i;
  }
  ASSERT_EQ(ta.dead_links.size(), tb.dead_links.size());
  for (std::size_t i = 0; i < ta.dead_links.size(); ++i) {
    EXPECT_EQ(ta.dead_links[i].second, tb.dead_links[i].second)
        << "dead-link sample " << i;
  }
  ASSERT_EQ(ta.retransmits.size(), tb.retransmits.size());
  for (std::size_t i = 0; i < ta.retransmits.size(); ++i) {
    EXPECT_EQ(ta.retransmits[i].first, tb.retransmits[i].first)
        << "retx sample " << i;
    EXPECT_EQ(ta.retransmits[i].second, tb.retransmits[i].second)
        << "retx sample " << i;
  }
  ASSERT_EQ(ta.in_flight.size(), tb.in_flight.size());
  for (std::size_t i = 0; i < ta.in_flight.size(); ++i) {
    EXPECT_EQ(ta.in_flight[i].first, tb.in_flight[i].first) << "sample " << i;
    EXPECT_EQ(ta.in_flight[i].second, tb.in_flight[i].second)
        << "sample " << i;
  }
}

TEST(PacketSim, MatchesReferenceAcrossPatternsAndTopologies) {
  // Every traffic pattern on a torus, a hypercube, an open mesh, a
  // butterfly and a two-channel fat tree, with a telemetry sink attached:
  // the engine's result surface equals the serial reference's. The fat
  // tree's multi-channel links exercise channel arbitration.
  struct Case {
    const char* name;
    std::unique_ptr<Topology> topo;
  };
  Case cases[5];
  cases[0] = {"torus8x8", make_mesh2d(8, 8, true)};
  cases[1] = {"hypercube64", make_hypercube(64)};
  cases[2] = {"mesh8x8", make_mesh2d(8, 8, false)};
  cases[3] = {"butterfly32", make_butterfly(32)};
  cases[4] = {"fattree64t2", make_fat_tree4(64, 2)};
  for (const auto& c : cases) {
    for (const auto pat : kPatterns) {
      SCOPED_TRACE(std::string(c.name) + "/" + traffic_pattern_name(pat));
      PacketSimConfig cfg = golden_config(pat);
      obs::NetTelemetry telem;
      telem.sample_every = 500;
      cfg.telemetry = &telem;
      expect_same_result(reference_packet_sim(*c.topo, cfg),
                         run_packet_sim(*c.topo, cfg));
    }
  }
}

TEST(PacketSim, MatchesReferenceWhenSaturated) {
  // Saturation truncates the run mid-flight (events parked past the drain
  // limit); the engine must park the same set as the serial reference and
  // report the same flag and counters.
  const auto topo = make_mesh2d(8, 8, false);
  PacketSimConfig base;
  base.pattern = TrafficPattern::kHotspot;
  base.hotspot_fraction = 0.5;
  base.injection_rate = 0.1;
  base.duration = 15000;
  base.drain_limit = 60000;
  obs::NetTelemetry telem;
  telem.sample_every = 500;
  base.telemetry = &telem;
  const auto ref = run_packet_sim(*topo, base);
  EXPECT_TRUE(ref.saturated);
  // Giving up the drain is exactly what `truncated` reports, and the packets
  // still parked past the limit are the undrained count. `delivered` only
  // counts in-window deliveries while undrained complements deliveries at
  // *any* time, so injected - delivered (which also includes drain-phase
  // deliveries) bounds it from above.
  EXPECT_TRUE(ref.truncated);
  EXPECT_GT(ref.undrained, 0);
  EXPECT_LE(ref.undrained, ref.injected - ref.delivered);
  expect_same_result(reference_packet_sim(*topo, base), ref);
}

TEST(PacketSim, SaturationFlagStableAcrossIdenticalRuns) {
  // Hotspot traffic at an aggressive rate with a tight drain limit: the run
  // saturates, and the flag (plus every counter) must agree across runs.
  const auto topo = make_mesh2d(8, 8, false);
  PacketSimConfig cfg;
  cfg.pattern = TrafficPattern::kHotspot;
  cfg.hotspot_fraction = 0.5;
  cfg.injection_rate = 0.1;
  cfg.duration = 15000;
  cfg.drain_limit = 60000;
  const auto a = run_packet_sim(*topo, cfg);
  const auto b = run_packet_sim(*topo, cfg);
  EXPECT_TRUE(a.saturated);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.latency.mean(), b.latency.mean());
}

TEST(PacketSim, DrainLimitCutMatchesReferenceAtEveryWindowOffset) {
  // Drain limits that cut a small run mid-injection, at every offset inside
  // one lookahead window: only events at or before the limit may count,
  // however the limit falls against the engine's window grid.
  const auto topo = make_mesh2d(4, 4, false);
  PacketSimConfig cfg = golden_config(TrafficPattern::kUniform);
  cfg.warmup = 200;
  cfg.duration = 2000;
  for (Cycles limit = 1200; limit < 1200 + lookahead(cfg); ++limit) {
    cfg.drain_limit = limit;
    SCOPED_TRACE("drain_limit=" + std::to_string(limit));
    const auto expected = reference_packet_sim(*topo, cfg);
    EXPECT_TRUE(expected.truncated);
    expect_same_result(expected, run_packet_sim(*topo, cfg));
  }
}

TEST(PacketSim, IdenticalRunsBitForBit) {
  const auto topo = make_hypercube(64);
  for (const auto pat : kPatterns) {
    SCOPED_TRACE(traffic_pattern_name(pat));
    const auto a = run_packet_sim(*topo, golden_config(pat));
    const auto b = run_packet_sim(*topo, golden_config(pat));
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.latency.mean(), b.latency.mean());
    EXPECT_EQ(a.latency.variance(), b.latency.variance());
    EXPECT_EQ(a.p95_latency, b.p95_latency);
    EXPECT_EQ(a.saturated, b.saturated);
    EXPECT_EQ(a.pool_slots, b.pool_slots);
  }
}

TEST(PacketSim, MatchesReferencePerFaultType) {
  // The window kernel has one code path per misfortune family (hashed
  // drop, hashed corrupt, targeted first-attempt drop, dead link, degraded
  // link, injection jitter, retransmit pressure). Exercise each in
  // isolation, then all of drop, corrupt, retry and degrade together, and
  // diff every result field (telemetry sink attached) against the serial
  // reference, with a counter proof that the family actually fired — a
  // plan that never triggers would make the diff vacuous.
  const auto topo = make_fat_tree4(64, 2);
  struct Case {
    const char* name;
    fault::FaultPlan plan;
    // Which result fields must be non-zero for the case to count.
    bool wants_dropped = false;
    bool wants_corrupted = false;
    bool wants_retransmitted = false;
    bool wants_perturbed = false;  // latency must differ from the clean run
  };
  Case cases[9];
  cases[0].name = "drop_only";
  cases[0].plan.drop_rate = 0.05;
  cases[0].wants_dropped = true;
  cases[1].name = "corrupt_only";
  cases[1].plan.corrupt_rate = 0.04;
  cases[1].wants_corrupted = true;
  cases[2].name = "targeted_drop_packets";
  cases[2].plan.drop_packets = {5, 50, 500, 5000};
  cases[2].wants_dropped = true;
  cases[3].name = "link_kill_interval";
  cases[3].plan.link_faults.push_back({0, 64, 1000, 9000, 0});
  cases[3].wants_dropped = true;
  cases[4].name = "link_degrade_interval";
  cases[4].plan.link_faults.push_back({0, 64, 1000, 9000, 4});
  cases[4].wants_perturbed = true;
  cases[5].name = "injection_jitter";
  cases[5].plan.max_injection_delay = 37;
  cases[5].wants_perturbed = true;
  cases[6].name = "retransmit_flood";
  cases[6].plan.drop_rate = 0.35;
  cases[6].plan.max_retries = 6;
  cases[6].wants_dropped = true;
  cases[6].wants_retransmitted = true;
  cases[7].name = "drop_and_corrupt";
  cases[7].plan.drop_rate = 0.05;
  cases[7].plan.corrupt_rate = 0.02;
  cases[7].plan.retry_timeout = 64;
  cases[7].wants_dropped = true;
  cases[7].wants_corrupted = true;
  cases[8].name = "drop_corrupt_degrade";
  cases[8].plan.drop_rate = 0.05;
  cases[8].plan.corrupt_rate = 0.02;
  cases[8].plan.retry_timeout = 64;
  cases[8].plan.link_faults.push_back({0, 64, 2000, 6000, 4});
  cases[8].wants_dropped = true;
  cases[8].wants_corrupted = true;
  cases[8].wants_retransmitted = true;
  const auto clean =
      run_packet_sim(*topo, golden_config(TrafficPattern::kUniform));
  for (auto& c : cases) {
    PacketSimConfig probe = golden_config(TrafficPattern::kUniform);
    if (c.plan.retry_timeout == 0) c.plan.retry_timeout = 8 * lookahead(probe);
    if (c.plan.max_retries == 0) c.plan.max_retries = 3;
    probe.faults = &c.plan;
    SCOPED_TRACE(c.name);
    PacketSimConfig cfg = probe;
    obs::NetTelemetry telem;
    telem.sample_every = 500;
    cfg.telemetry = &telem;
    const auto r = run_packet_sim(*topo, cfg);
    if (c.wants_dropped) {
      EXPECT_GT(r.dropped, 0);
    }
    if (c.wants_corrupted) {
      EXPECT_GT(r.corrupted, 0);
    }
    if (c.wants_retransmitted) {
      EXPECT_GT(r.retransmitted, 0);
    }
    if (c.wants_perturbed) {
      EXPECT_NE(r.latency.mean(), clean.latency.mean())
          << "plan should perturb timing even without losses";
    }
    expect_same_result(reference_packet_sim(*topo, probe), r);
  }
}

TEST(PacketSim, LookaheadMatchesPerHopServiceTime) {
  PacketSimConfig cfg;
  cfg.hop_delay = 3;
  cfg.phits = 7;
  // The engine's window width: no event can influence another less than
  // one full hop (routing + serialization) in the future.
  EXPECT_EQ(lookahead(cfg), 10);
  EXPECT_EQ(unloaded_packet_time(cfg, 1.0),
            static_cast<double>(lookahead(cfg)));
}

TEST(PacketSim, RejectsOutOfRangeConfig) {
  // Out-of-range knobs get a message naming the field and the value, not
  // a NaN throughput, an out-of-range cast or a silently clamped run. The
  // engine is single-threaded, so intra-run threads (0 or more than 1) are
  // rejected too, not run serially.
  const auto topo = make_mesh2d(4, 4, true);
  struct Case {
    const char* name;
    std::function<void(PacketSimConfig&)> set;
    std::vector<const char*> wants;  // substrings of the message
  };
  const Case cases[] = {
      {"sim_threads=0", [](PacketSimConfig& c) { c.sim_threads = 0; },
       {"sim_threads is 0", "single-threaded"}},
      {"sim_threads=4", [](PacketSimConfig& c) { c.sim_threads = 4; },
       {"sim_threads is 4", "single-threaded"}},
      {"duration=0", [](PacketSimConfig& c) { c.duration = 0; },
       {"PacketSimConfig::duration", "got 0"}},
      {"duration=-5000",
       [](PacketSimConfig& c) {
         c.warmup = 0;
         c.duration = -5000;
       },
       {"PacketSimConfig::duration", "got -5000"}},
      {"warmup=-3000",
       [](PacketSimConfig& c) {
         c.warmup = -3000;
         c.duration = 1000;
       },
       {"PacketSimConfig::warmup", "got -3000"}},
      {"hotspot_fraction=1.7",
       [](PacketSimConfig& c) {
         c.pattern = TrafficPattern::kHotspot;
         c.hotspot_fraction = 1.7;
       },
       {"PacketSimConfig::hotspot_fraction", "got 1.7"}},
      {"hotspot_fraction=-0.1",
       [](PacketSimConfig& c) { c.hotspot_fraction = -0.1; },
       {"PacketSimConfig::hotspot_fraction", "got -0.1"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    PacketSimConfig cfg = golden_config(TrafficPattern::kUniform);
    c.set(cfg);
    try {
      (void)run_packet_sim(*topo, cfg);
      ADD_FAILURE() << "expected a check_error";
    } catch (const util::check_error& e) {
      for (const char* want : c.wants)
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
            << "missing '" << want << "' in: " << e.what();
    }
  }
  // The edges of each range still run.
  PacketSimConfig edge = golden_config(TrafficPattern::kHotspot);
  edge.warmup = 0;
  edge.duration = 1;
  edge.hotspot_fraction = 1.0;
  EXPECT_NO_THROW((void)run_packet_sim(*topo, edge));
  edge.hotspot_fraction = 0.0;
  EXPECT_NO_THROW((void)run_packet_sim(*topo, edge));
}

// ---- Fault-aware rerouting (PacketSimConfig::reroute) --------------------

TEST(PacketSim, RerouteDetoursAroundKilledLinkAndHealsBack) {
  // Hotspot traffic on an open 4x4 mesh funnels through the two links into
  // node 0; killing (1, 0) mid-run strands the upstream backlog of packets
  // that committed their route before the outage (injections during the
  // outage are born onto the detour and never touch the dead link). With a
  // retry budget far too small to outlive the outage, those packets are
  // lost without rerouting; with it, the first retry recommits to the BFS
  // detour around the dead link and delivers.
  const auto topo = make_mesh2d(4, 4, false);
  PacketSimConfig cfg;
  cfg.pattern = TrafficPattern::kHotspot;
  cfg.hotspot_fraction = 0.5;
  cfg.injection_rate = 0.05;
  cfg.duration = 10000;
  fault::FaultPlan plan;
  plan.retry_timeout = 2 * lookahead(cfg);
  plan.max_retries = 3;
  plan.link_faults.push_back({1, 0, 2000, 9000, 0});
  cfg.faults = &plan;

  obs::NetTelemetry telem_off;
  telem_off.sample_every = 500;
  PacketSimConfig off = cfg;
  off.telemetry = &telem_off;
  const auto r_off = run_packet_sim(*topo, off);
  EXPECT_GT(r_off.lost, 0) << "retries must exhaust inside the outage";
  EXPECT_EQ(r_off.rerouted, 0);
  EXPECT_TRUE(telem_off.reroutes.empty())
      << "reroute series stays empty without the flag";
  EXPECT_TRUE(telem_off.dead_links.empty());

  obs::NetTelemetry telem_on;
  telem_on.sample_every = 500;
  PacketSimConfig on = cfg;
  on.telemetry = &telem_on;
  on.reroute = true;
  const auto r_on = run_packet_sim(*topo, on);
  EXPECT_GT(r_on.rerouted, 0);
  EXPECT_LT(r_on.lost, r_off.lost);
  // Workload is untouched by the route choice.
  EXPECT_EQ(r_on.injected, r_off.injected);
  // Rerouting converts losses into (possibly late) deliveries. The detour
  // squeezes everything through the surviving link into node 0, so the
  // windowed goodput can dip below the no-reroute run — which sheds load by
  // losing packets — but end-to-end completions must strictly improve.
  const std::int64_t done_on = r_on.injected - r_on.lost - r_on.undrained;
  const std::int64_t done_off = r_off.injected - r_off.lost - r_off.undrained;
  EXPECT_GT(done_on, done_off);

  // The sampled reroute series is cumulative and ends at the result total;
  // the dead-link series overlays the configured outage exactly.
  ASSERT_FALSE(telem_on.reroutes.empty());
  EXPECT_EQ(telem_on.reroutes.back().second, r_on.rerouted);
  for (std::size_t i = 1; i < telem_on.reroutes.size(); ++i)
    EXPECT_GE(telem_on.reroutes[i].second, telem_on.reroutes[i - 1].second);
  ASSERT_FALSE(telem_on.dead_links.empty());
  for (const auto& [t, n] : telem_on.dead_links)
    EXPECT_EQ(n, (t >= 2000 && t < 9000) ? 1 : 0) << "at t=" << t;

  // Per-link attribution: no corruption in the plan, so every reroute (and
  // every retransmit) is charged to the link that dropped the attempt.
  std::int64_t link_reroutes = 0, link_retransmits = 0, link_drops = 0;
  for (const auto& l : telem_on.links) {
    link_reroutes += l.reroutes;
    link_retransmits += l.retransmits;
    link_drops += l.drops;
  }
  EXPECT_EQ(link_reroutes, r_on.rerouted);
  EXPECT_EQ(link_retransmits, r_on.retransmitted);
  EXPECT_EQ(link_drops, r_on.dropped);
}

TEST(PacketSim, RerouteByteIdenticalAcrossRuns) {
  // The recovery figure's contract: a kill/heal run with rerouting engaged
  // is byte-identical from run to run — full result surface plus
  // telemetry, including the reroute and dead-link series. (The serial
  // reference has no epoch-route model, so this is a repeat identity, not
  // a reference diff.)
  const auto topo = make_hypercube(32);
  PacketSimConfig base;
  base.injection_rate = 0.02;
  base.duration = 10000;
  fault::FaultPlan plan;
  plan.drop_rate = 0.01;  // background noise on top of the outage
  plan.retry_timeout = 4 * lookahead(base);
  plan.max_retries = 5;
  plan.link_faults.push_back({0, 1, 1000, 6000, 0});
  plan.link_faults.push_back({15, 31, 2000, 8000, 0});
  base.faults = &plan;
  base.reroute = true;

  obs::NetTelemetry ref_telem;
  ref_telem.sample_every = 250;
  PacketSimConfig ref_cfg = base;
  ref_cfg.telemetry = &ref_telem;
  const auto ref = run_packet_sim(*topo, ref_cfg);
  EXPECT_GT(ref.rerouted, 0);
  // The engine charges a reroute to a link only when a retry really
  // recommits to another route, so this proves a genuine detour happened.
  std::int64_t link_reroutes = 0;
  for (const auto& l : ref_telem.links) link_reroutes += l.reroutes;
  EXPECT_GT(link_reroutes, 0);

  PacketSimConfig cfg = base;
  obs::NetTelemetry telem;
  telem.sample_every = 250;
  cfg.telemetry = &telem;
  const auto r = run_packet_sim(*topo, cfg);
  expect_identical(ref, ref_telem, r, telem);
}

TEST(PacketSim, RerouteFlagIsInertWithoutKillIntervals) {
  // Degraded (slow but live) links give the router nothing to route
  // around: the flag must not perturb the run in any observable way.
  const auto topo = make_mesh2d(8, 8, true);
  PacketSimConfig cfg = golden_config(TrafficPattern::kUniform);
  fault::FaultPlan plan;
  plan.drop_rate = 0.02;
  plan.retry_timeout = 4 * lookahead(cfg);
  plan.max_retries = 4;
  plan.link_faults.push_back({0, 1, 1000, 9000, 3});  // degrade, not kill
  cfg.faults = &plan;
  obs::NetTelemetry telem_off;
  telem_off.sample_every = 500;
  PacketSimConfig off = cfg;
  off.telemetry = &telem_off;
  const auto r_off = run_packet_sim(*topo, off);
  obs::NetTelemetry telem_on;
  telem_on.sample_every = 500;
  PacketSimConfig on = cfg;
  on.telemetry = &telem_on;
  on.reroute = true;
  const auto r_on = run_packet_sim(*topo, on);
  EXPECT_EQ(r_on.rerouted, 0);
  expect_identical(r_off, telem_off, r_on, telem_on);
}

}  // namespace
}  // namespace logp::net

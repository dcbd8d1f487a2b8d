// Packet-level network simulator with link contention (paper Section 5.3).
//
// Store-and-forward routing over a Topology: each hop occupies one channel
// of the traversed link for r + ceil(M/w) cycles (routing delay plus
// serialization). Packets queue FIFO at busy links. Endpoints inject packets
// with Bernoulli(rate) arrivals to uniformly random destinations.
//
// This is the substrate for the saturation study: below the saturation
// point latency is nearly flat (so modelling L as a constant is sound);
// beyond it latency diverges — the regime LogP excludes via its capacity
// constraint.
#pragma once

#include <cstdint>

#include "fault/fault.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace logp::obs {
class MetricsRegistry;
struct NetTelemetry;
}  // namespace logp::obs

namespace logp::net {

/// Destination pattern for generated traffic (paper Section 5.6: different
/// communication patterns see different effective bandwidths — "multiple
/// g's" — on the same network).
enum class TrafficPattern {
  kUniform,      ///< uniformly random destination
  kTranspose,    ///< endpoint (x, y) -> (y, x); a "good" permutation on
                 ///  some networks, adversarial on others
  kBitReverse,   ///< bit-reversed endpoint id (butterfly's bad case)
  kNeighbor,     ///< endpoint e -> e+1 mod P (stencil-like locality)
  kHotspot,      ///< a fraction of traffic targets endpoint 0
};

const char* traffic_pattern_name(TrafficPattern p);

struct PacketSimConfig {
  Cycles hop_delay = 2;        ///< r, cycles of routing logic per hop
  int phits = 10;              ///< ceil(M/w), serialization cycles per hop
  double injection_rate = 0.01;  ///< packets per endpoint per cycle
  TrafficPattern pattern = TrafficPattern::kUniform;
  double hotspot_fraction = 0.2;  ///< for kHotspot: share sent to endpoint 0
  Cycles warmup = 2000;        ///< cycles before measurements start
  Cycles duration = 20000;     ///< measured injection window
  Cycles drain_limit = 400000; ///< give up draining after this absolute time
  std::uint64_t seed = 0x9a7e;
  /// Must be 1: the engine runs one simulation on the caller's thread, and
  /// run_packet_sim rejects any other value. Independent simulations run
  /// in parallel through exp::SweepRunner. Kept only so callers that still
  /// assign 1 compile; slated for removal.
  int sim_threads = 1;
  /// Optional telemetry sink (see obs/net_telemetry.hpp): per-link
  /// utilization / queue waits plus a sampled in-flight series. Attaching a
  /// sink is purely observational — RNG draws, event order and every
  /// PacketSimResult field are unchanged (pinned by tests/test_obs.cpp).
  obs::NetTelemetry* telemetry = nullptr;
  /// Optional engine-introspection sink (see obs/metrics.hpp): the batch
  /// engine publishes net.wheel.* (time-wheel pushes, peak bucket occupancy
  /// and l2_pushes — events staged through the 64-frame second-level
  /// wheel), net.heap.spills (events past both wheel horizons),
  /// net.kernel.{simd,faulted_simd}_windows (window-kernel dispatches
  /// without and with an active fault plan) and
  /// net.sort.{counting_windows,radix_windows,fallbacks} once, after the
  /// run. Attaching it never changes PacketSimResult (pinned by tests). The
  /// counters describe the engine's batching, not the simulated network, so
  /// byte-identity tests exclude them. Same ownership rules as the
  /// machine's registry: one owner, must outlive the run.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional deterministic fault plan (see fault/fault.hpp). Null — or a
  /// plan with no packet-level faults — is byte-identical to the fault-free
  /// simulator. Every LinkFault must name nodes of the topology (checked).
  /// Every fault decision is a pure hash of (plan seed, injection id,
  /// attempt), so it does not depend on how the engine batches events. A
  /// plan with retry_timeout != 0 must satisfy retry_timeout >=
  /// lookahead(cfg): a retry closer than one window would be pushed into
  /// the bucket the window kernel is reading.
  const fault::FaultPlan* faults = nullptr;
  /// Fault-aware rerouting (opt-in). When the attached plan carries link
  /// kill intervals (LinkFault::degrade == 0), routes become epoch-stamped:
  /// the kill interval edges partition time into epochs, and every
  /// (src, dst) pair gets one precomputed route per epoch — a BFS detour
  /// around the links dead in that epoch, or the base deterministic route
  /// when it is unaffected (or no detour exists). A packet commits to the
  /// route of its dispatch epoch (injection or retry instant); a retry
  /// whose re-dispatch lands in a different epoch recommits, so traffic
  /// detours around an outage and returns to the base route after the heal.
  /// All variants are resolved in the pre-pass, before the engine starts,
  /// so results stay byte-identical with SIMD on or off (pinned by
  /// tests/test_packet_sim.cpp). Default off: historical kill-fault
  /// behavior — drop-and-retry on the dead route — is byte-identical to
  /// before the flag existed.
  bool reroute = false;
};

struct PacketSimResult {
  util::RunningStat latency;   ///< generation-to-delivery, measured packets
  double p95_latency = 0;
  std::int64_t injected = 0;
  std::int64_t delivered = 0;
  double offered_load = 0;     ///< packets / endpoint / cycle
  double throughput = 0;       ///< delivered packets / endpoint / cycle
  bool saturated = false;      ///< drain did not finish within drain_limit
  /// True when the simulator gave up with packets still undelivered —
  /// either the event horizon crossed drain_limit mid-drain or injections
  /// past drain_limit were never dispatched. Latency/throughput figures
  /// from a truncated run understate congestion; experiment binaries warn.
  bool truncated = false;
  std::int64_t undrained = 0;  ///< packets neither delivered nor lost
  // ---- fault accounting (all zero without an active FaultPlan) ----
  std::int64_t dropped = 0;        ///< attempts dropped mid-route
  std::int64_t corrupted = 0;      ///< attempts discarded at destination
  std::int64_t retransmitted = 0;  ///< re-dispatches after a loss
  std::int64_t rerouted = 0;       ///< retries recommitted to another route
                                   ///  (only with PacketSimConfig::reroute)
  std::int64_t lost = 0;           ///< packets abandoned (retries exhausted)
  /// Pool accounting (see DESIGN.md "Memory management"): the packet store
  /// recycles delivered slots, so slots created == peak concurrency, not
  /// packet count. Exposed so tests can pin the zero-growth invariant.
  std::int64_t peak_in_flight = 0;  ///< max packets simultaneously in network
  std::int64_t pool_slots = 0;      ///< packet slots ever created
};

PacketSimResult run_packet_sim(const Topology& topo,
                               const PacketSimConfig& cfg);

/// Window width of the engine: every hop occupies a link for at least
/// `hop_delay + phits` cycles, so an event processed at time t can only
/// schedule events at >= t + lookahead. Time advances in aligned windows of
/// this width, so a window's population is complete when it opens and the
/// window kernel sorts and processes it in one batch (derivation in
/// DESIGN.md: this is the per-hop share of LogP's L).
inline Cycles lookahead(const PacketSimConfig& cfg) {
  return cfg.hop_delay + static_cast<Cycles>(cfg.phits);
}

/// Unloaded end-to-end time for one packet over `hops` hops.
inline double unloaded_packet_time(const PacketSimConfig& cfg, double hops) {
  return hops * static_cast<double>(cfg.hop_delay + cfg.phits);
}

}  // namespace logp::net

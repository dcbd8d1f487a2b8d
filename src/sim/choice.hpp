// Choice-point oracle the model checker drives the machine through.
//
// Kept apart from machine.hpp as a header-only, engine-agnostic interface —
// an alternative index into a labelled set of admissible behaviours. src/mc
// builds its explorer against this one type and replays counterexamples
// through it.
#pragma once

#include <cstdint>

namespace logp::sim {

/// Kinds of nondeterministic decisions an engine exposes to a model
/// checker (src/mc). The LogP model admits *any* schedule consistent with
/// its bounds; a concrete simulation picks one. These are the points where
/// the pick is a modelling choice rather than a consequence of the
/// parameters — the axes an adversarial scheduler may vary:
///
///   kAcceptOrder  which of several delivered-but-unreceived messages the
///                 processor engages with next (the machine's default is
///                 FIFO by arrival),
///   kDrop         whether a droppable message vanishes in flight (the
///                 default is the fault plan's pure-hash verdict,
///                 FaultPlan::message_dropped),
///   kLatency      the latency drawn for a message when the config allows a
///                 range (latency_min in [0, L); the default is the RNG
///                 sample — which is still drawn either way, so an oracle
///                 never perturbs the RNG stream).
enum class ChoiceKind : std::uint8_t { kAcceptOrder, kDrop, kLatency };

/// Consulted at each choice point when attached via MachineConfig::oracle.
/// `labels` carries one word of semantics per alternative (kAcceptOrder: a
/// content hash of the candidate message, for pruning commuting
/// deliveries; kDrop: 1 if that alternative drops; kLatency: the candidate
/// latency). Alternative 0 is always the engine's default, so an oracle
/// that returns 0 everywhere reproduces the oracle-free run exactly (pinned
/// by tests/test_mc.cpp). A null oracle costs one predicted branch per
/// site.
class ChoiceOracle {
 public:
  virtual ~ChoiceOracle() = default;
  /// Returns the chosen alternative in [0, n); n >= 2.
  virtual int choose(ChoiceKind kind, int n, const std::uint64_t* labels) = 0;
};

}  // namespace logp::sim

// Epoch-based membership over the reliable layer.
//
// Each processor keeps a *local* monotone view: an epoch counter plus a
// live-set bitmap. Views only move forward — a death verdict from the
// failure detector (runtime/detector.hpp) removes the subject and bumps the
// epoch; a rejoin admits a revived processor in a strictly later epoch via
// an explicit state-sync message that pays real o/g/L through the reliable
// layer. Because detector verdicts are deterministic functions of simulated
// time, every healthy observer bumps its epoch at a deterministic cycle and
// the whole protocol is byte-identical at any --threads or SIMD setting.
//
// Rejoin protocol (the fault::ProcFault::recover_at loop):
//   1. The revived processor sends JOIN to the lowest processor its (stale)
//      view believes live, falling back to the next candidate on a
//      dead-peer verdict.
//   2. The coordinator bumps its epoch, re-admits the joiner, and sends a
//      VIEW state-sync (epoch + live bitmap in one payload word) to every
//      live member including the joiner — each sync an ordinary reliable
//      send paying full LogP costs.
//   3. A receiver adopts a VIEW only when its epoch is strictly greater
//      than the local one (monotonicity); the joiner observes its own
//      admission through that adoption.
//
// The epoch-aware collectives at the bottom rebuild their communication
// structure mid-collective when the local view changes, instead of hanging
// on a dead parent: receivers wait with Ctx::recv_until and re-derive their
// tree position on timeout; holders shepherd the value until the shared
// deadline, re-feeding subtrees orphaned by an epoch bump.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "fault/fault.hpp"
#include "runtime/reliable.hpp"
#include "runtime/scheduler.hpp"

namespace logp::runtime {

/// Membership protocol tags (payloads ride the reliable layer).
inline constexpr std::int32_t kJoinTag = kReservedTagBase + 900101;
inline constexpr std::int32_t kViewTag = kReservedTagBase + 900102;

/// A monotone membership view. Epoch 0 is the founding view (everyone
/// live); every change strictly increases the epoch.
struct View {
  std::int64_t epoch = 0;
  std::vector<char> live;

  int live_count() const;
  /// Lowest live processor (the rejoin coordinator), or -1.
  ProcId coordinator() const;
  std::vector<ProcId> live_list() const;
};

class Membership {
 public:
  struct Options {
    /// TEST ONLY — seeded protocol bug for the model checker's mutation
    /// test: the coordinator re-admits a joiner without bumping the epoch,
    /// so the VIEW sync is not strictly newer and is never adopted. The
    /// mc_check rejoin invariant must catch this (CI model-check job).
    bool test_skip_epoch_bump = false;
  };

  struct Stats {
    std::int64_t deaths = 0;          ///< local view removals (all procs)
    std::int64_t epoch_bumps = 0;
    std::int64_t joins_sent = 0;      ///< JOIN payloads delivered
    std::int64_t joins_processed = 0; ///< coordinator-side admissions
    std::int64_t view_syncs_sent = 0;
    std::int64_t view_syncs_adopted = 0;
    std::int64_t view_syncs_stale = 0;  ///< arrived with epoch <= local
  };

  /// One local view change, in the order it happened.
  struct EpochRecord {
    Cycles t = 0;
    ProcId observer = -1;  ///< whose view changed
    std::int64_t epoch = 0;
    ProcId subject = -1;   ///< who was removed / admitted
    bool joined = false;   ///< false = death, true = admission
  };

  /// Installs the JOIN / VIEW handlers on `sched`. Views encode the live
  /// set in one payload word, so P <= 32.
  Membership(Scheduler& sched, ReliableLayer& rel, Options opts);
  Membership(Scheduler& sched, ReliableLayer& rel)
      : Membership(sched, rel, Options{}) {}

  Membership(const Membership&) = delete;
  Membership& operator=(const Membership&) = delete;

  const View& view(ProcId p) const {
    return views_[static_cast<std::size_t>(p)];
  }
  std::int64_t epoch(ProcId p) const { return view(p).epoch; }

  /// Detector verdict sink: observer ctx.proc() removes q from its local
  /// view and bumps its epoch. Idempotent per (observer, subject).
  void report_dead(Ctx ctx, ProcId q);

  /// Rejoin task for a revived processor: JOIN the coordinator, then wait
  /// (polling at the reliable layer's timeout granularity) until a VIEW
  /// sync admits us or `deadline` passes. Always terminates by `deadline`.
  Task rejoin(Ctx ctx, Cycles deadline);

  /// Convenience SPMD task: a processor with a [fail_at, recover_at)
  /// interval in `plan` sleeps through its outage and rejoins (deadline
  /// bounds the wait for admission); everyone else returns immediately.
  Task revival_task(Ctx ctx, const fault::FaultPlan* plan, Cycles deadline);

  const Stats& stats() const { return stats_; }
  const std::vector<EpochRecord>& log() const { return log_; }
  ReliableLayer& reliable() const { return *rel_; }

 private:
  void on_join(Ctx ctx, const Message& m);
  void on_view(Ctx ctx, const Message& m);

  Scheduler* sched_;
  ReliableLayer* rel_;
  Options opts_;
  Stats stats_;
  std::vector<View> views_;
  std::vector<EpochRecord> log_;
  /// Outcome slots for fire-and-forget reliable sends (stable addresses).
  std::deque<ReliableLayer::SendOutcome> outcomes_;
};

namespace coll {

/// Knobs shared by the epoch-aware collectives. Both collectives are
/// deadline-bounded: every participant provably finishes by `deadline`
/// (absolute cycle), so a botched view can degrade the result but never
/// deadlock the run. round_timeout is the re-evaluation granularity —
/// how long a participant waits before re-deriving its tree position from
/// the (possibly bumped) local view. 0 derives the detector-style default
/// of one suspicion window: 3 * (2L + 4o).
struct EpochCollOptions {
  Cycles deadline = 0;  ///< required, absolute
  Cycles round_timeout = 0;
};

/// Binomial broadcast over the CURRENT local views, rebuilt mid-collective
/// on epoch bumps. Non-holders recv_until with round_timeout and re-derive
/// their position when the view changed; holders re-send to the children
/// of every new view until deadline, so a subtree orphaned by a death is
/// re-fed in the next epoch. Duplicate deliveries are suppressed locally.
/// On return, every processor that stayed live holds the root's value.
Task broadcast_resilient(Ctx ctx, Membership& mem, std::uint64_t* value,
                         bool* degraded, const EpochCollOptions& opts,
                         std::int32_t tag);

/// Epoch-aware reduce: every live contributor reliable-sends its value to
/// the coordinator of its current view, re-sending to the new coordinator
/// if an epoch bump dethrones the old one; the final coordinator
/// accumulates with per-source dedup until every live peer contributed or
/// the deadline passes. *result lands on the final coordinator.
Task reduce_resilient(Ctx ctx, Membership& mem, std::uint64_t value,
                      std::uint64_t* result, bool* degraded,
                      const EpochCollOptions& opts, std::int32_t tag);

}  // namespace coll

}  // namespace logp::runtime

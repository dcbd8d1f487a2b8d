// Critical-path tracer: an arena-backed recorder of the message/compute
// dependency DAG a sim::Machine run induces, plus the analyses that make the
// finish time explainable (ISSUE: causal profiling).
//
// The profiler (obs/profiler.hpp) answers "where did the cycles go" in
// aggregate; it cannot say *which* chain of operations bound the finish time
// or what a parameter change would buy. The recorder captures one node per
// operation milestone —
//
//   kComputeEnd   a compute finished           (edge: compute duration)
//   kSendEngage   the send port engaged        (edges: CPU chain, port gap)
//   kSendReady    the send overhead was paid   (edge: o)
//   kInject       the message entered the net  (edges: ready, capacity slot)
//   kStreamDone   a DMA stream drained         (edge: words x gap)
//   kArrive       the message reached its dst  (edge: wire latency)
//   kRecvStart    the reception engaged        (edges: CPU, port gap, arrive)
//   kRecvEnd      the receive overhead was paid (edge: o)
//
// — with up to three predecessor edges each, every edge weighted by the
// recorded duration and typed by which LogP parameter it answers to. Nodes
// are created in event order, so creation order is a topological order of
// the DAG and every analysis is a single linear pass:
//
//  * critical path: walk binding predecessors back from the finish node;
//    the traversed edge weights sum *exactly* to the finish time, attributed
//    per edge kind (compute / send-o / recv-o / g-wait / wire-L) and rank;
//  * slack: longest-tail backward pass; slack(v) is how far v's completion
//    could slip without moving the finish, ranking near-critical chains;
//  * what-if (obs/whatif.hpp): recompute every node time with per-kind
//    scaled weights — a model-based prediction of the same schedule under
//    perturbed (L, o, g), exact for uniform scalings (see DESIGN.md for the
//    soundness conditions).
//
// Exogenous waits the parameters cannot explain (timed program steps such as
// retransmit timeouts) become node "anchors": a recorded lower bound that
// keeps the unit-scale recomputation exact and is attributed to its own
// bucket. Capture hooks live in sim/machine.cpp next to the trace::Recorder
// taps, null-checked when no recorder is attached.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "util/arena.hpp"

namespace logp::obs {

/// Edge types, by which LogP parameter prices them. kSeq and kCapacity are
/// ordering-only (weight 0): CPU program order and network capacity-slot
/// releases respectively.
enum class CPEdge : std::uint8_t {
  kSeq = 0,
  kCompute,
  kSendO,
  kRecvO,
  kGap,
  kWire,
  kCapacity,
};

enum class CPNodeKind : std::uint8_t {
  kComputeEnd = 0,
  kSendEngage,
  kSendReady,
  kInject,
  kStreamDone,
  kArrive,
  kRecvStart,
  kRecvEnd,
};

const char* cp_edge_name(CPEdge e);
const char* cp_node_kind_name(CPNodeKind k);

/// One DAG node. `t` is the recorded completion time; `anchor` is nonzero
/// only when `t` exceeded every predecessor-derived bound (an exogenous
/// wait — e.g. a timed program step), in which case it equals `t` and the
/// recomputation treats it as a fixed lower bound.
struct CPNode {
  Cycles t = 0;
  Cycles anchor = 0;
  Cycles w[3] = {0, 0, 0};          ///< predecessor edge weights
  std::int32_t pred[3] = {-1, -1, -1};  ///< node ids; -1 = the t=0 source
  ProcId proc = -1;
  CPNodeKind kind = CPNodeKind::kComputeEnd;
  CPEdge edge[3] = {CPEdge::kSeq, CPEdge::kSeq, CPEdge::kSeq};
  std::uint8_t npred = 0;
};

/// The DAG recorder. One per machine run (like a MetricsRegistry); attach
/// via sim::MachineConfig::critpath. Node storage is bump-allocated from a
/// util::Arena in fixed chunks, so steady-state capture costs no heap
/// traffic once the arena has warmed up, and reset() recycles everything.
class CritPathRecorder {
 public:
  CritPathRecorder() = default;
  CritPathRecorder(const CritPathRecorder&) = delete;
  CritPathRecorder& operator=(const CritPathRecorder&) = delete;

  // ---- capture hooks (called by sim::Machine; see sim/machine.cpp) ----
  void begin_run(int procs);
  void on_compute(ProcId p, Cycles end, Cycles dur);
  /// `port_busy` = how long this engagement occupies the send port (g for a
  /// small message, o + words x gap for a DMA stream); it prices the kGap
  /// edge to the *next* engagement on p.
  void on_send_engage(ProcId p, Cycles t, Cycles overhead, Cycles port_busy);
  /// `was_stalled` adds the capacity edge from the release event (the
  /// accept/drop that freed the slot) recorded by on_accept/on_drop.
  void on_inject(ProcId p, std::uint32_t msg, Cycles t, bool was_stalled,
                 Cycles stream, Cycles latency);
  void on_accept(ProcId p, std::uint32_t msg, Cycles t, Cycles overhead,
                 Cycles port_gap);
  void on_drop(std::uint32_t msg);
  void on_finish(Cycles finish);

  // ---- read API ----
  std::int64_t size() const { return count_; }
  const CPNode& node(std::int64_t i) const {
    return chunks_[static_cast<std::size_t>(i >> kChunkShift)]
                  [i & (kChunkNodes - 1)];
  }
  int procs() const { return procs_; }
  Cycles finish() const { return finish_; }
  bool finished() const { return finished_; }
  bool empty() const { return count_ == 0; }

  /// Recycles all nodes and per-proc state; arena chunks are retained.
  void reset();

 private:
  static constexpr int kChunkShift = 10;
  static constexpr std::int64_t kChunkNodes = 1 << kChunkShift;

  struct ProcState {
    std::int32_t cpu = -1;         ///< node after which the CPU is free
    std::int32_t send_engage = -1;
    std::int32_t recv_start = -1;
    Cycles send_port_w = 0;  ///< kGap weight to the next send engagement
    Cycles recv_port_w = 0;  ///< kGap weight to the next reception
  };

  CPNode& slot(std::int64_t i) {
    return chunks_[static_cast<std::size_t>(i >> kChunkShift)]
                  [i & (kChunkNodes - 1)];
  }
  /// Appends a node; computes the anchor from the recorded preds so a
  /// unit-scale recomputation reproduces `t` exactly.
  std::int32_t add_node(CPNodeKind kind, ProcId proc, Cycles t);
  void add_pred(CPNode& n, std::int32_t pred, Cycles w, CPEdge e);
  void seal(CPNode& n);

  util::Arena arena_{kChunkNodes * sizeof(CPNode)};
  std::vector<CPNode*> chunks_;
  std::int64_t count_ = 0;
  std::vector<ProcState> ps_;
  std::vector<std::int32_t> msg_arrive_;  ///< message pool idx -> kArrive node
  std::int32_t last_release_ = -1;  ///< most recent capacity-slot release
  int procs_ = 0;
  Cycles finish_ = 0;
  bool finished_ = false;
};

/// Attribution buckets of the critical-path walk. kAnchorBucket collects the
/// starting anchor when the path originates at an exogenous wait.
inline constexpr int kCritBuckets = 6;
extern const std::array<const char*, kCritBuckets> kCritBucketNames;
int cp_bucket(CPEdge e);  ///< bucket index; -1 for weightless edges

/// One step of the critical path, source to sink: node `id` was reached from
/// its binding predecessor over an edge of `edge` kind and `w` cycles.
struct CritPathStep {
  std::int64_t id = -1;
  ProcId proc = -1;
  CPNodeKind kind = CPNodeKind::kComputeEnd;
  Cycles t = 0;
  CPEdge edge = CPEdge::kSeq;
  Cycles w = 0;
};

/// A maximal run of nodes sharing one slack value along binding-predecessor
/// links; chains rank the near-critical structure of the run.
struct CritChain {
  Cycles slack = 0;
  Cycles cycles = 0;  ///< sum of the member nodes' binding-edge weights
  std::int64_t nodes = 0;
  Cycles t0 = 0, t1 = 0;
  ProcId proc_lo = 0, proc_hi = 0;
};

struct CritPathReport {
  Cycles finish = 0;
  std::int64_t node_count = 0;
  /// Path length per bucket (indexed by kCritBucketNames); sums to finish.
  std::array<Cycles, kCritBuckets> buckets{};
  /// Same attribution split per rank (wire edges belong to the receiver).
  std::vector<std::array<Cycles, kCritBuckets>> per_rank;
  std::vector<CritPathStep> path;  ///< source -> sink
  std::vector<CritChain> chains;   ///< by (slack asc, cycles desc)
  Cycles anchor_cycles = 0;  ///< exogenous share of the path (bucket 5)

  bool empty() const { return node_count == 0; }
  Cycles bucket_sum() const;
};

/// Full analysis: critical path with bucket/rank attribution, slack and the
/// top `top_chains` slack-ranked chains. Deterministic (ties resolved by
/// node id), so the rendered artifacts are byte-identical across repeat runs
/// and sweep thread counts.
CritPathReport analyze_critical_path(const CritPathRecorder& rec,
                                     int top_chains = 10);

/// {"critical_path": {...}} artifact (tools/trace_summary.py format 5).
std::string critpath_json(const CritPathReport& rep);
/// Chain table CSV, schema: chain,slack,cycles,nodes,t0,t1,proc_lo,proc_hi.
std::string critpath_csv(const CritPathReport& rep);

}  // namespace logp::obs

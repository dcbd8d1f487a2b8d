#include "sim/machine.hpp"

#include <algorithm>

#include "fault/fault.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace logp::sim {

namespace {

/// Content hash of a message for the kAcceptOrder choice labels: two
/// pending arrivals with equal labels are interchangeable, so the explorer
/// only branches over distinct ones (sleep-set-style pruning of commuting
/// deliveries — the common case being duplicate retransmissions).
std::uint64_t arrival_label(const Message& m) {
  auto mix = [](std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  std::uint64_t h = mix((static_cast<std::uint64_t>(
                             static_cast<std::uint32_t>(m.src))
                         << 32) ^
                        static_cast<std::uint32_t>(m.tag));
  h = mix(h ^ m.bulk_words) ^ m.nwords;
  for (std::uint32_t i = 0; i < m.nwords; ++i) h = mix(h ^ m.word(i));
  return h;
}

}  // namespace

Machine::Machine(MachineConfig config, Host& host)
    : cfg_(std::move(config)),
      host_(host),
      rng_(cfg_.seed),
      recorder_(cfg_.record_trace) {
  cfg_.params.validate();
  if (cfg_.faults != nullptr) cfg_.faults->validate();
  LOGP_CHECK(cfg_.latency_min <= cfg_.params.L);
  LOGP_CHECK(cfg_.compute_jitter >= 0.0 && cfg_.compute_jitter < 1.0);
  procs_.resize(static_cast<std::size_t>(cfg_.params.P));
  events_.reserve(64 + 4 * static_cast<std::size_t>(cfg_.params.P));
  if (cfg_.metrics != nullptr) {
    // Resolve once; the hot paths then update through nullable pointers.
    // Stall segments rarely exceed a few L, so [0, 4096) x 64 bins keeps
    // quantiles meaningful for every current experiment.
    obs_.stalls_entered = cfg_.metrics->counter("sim.sends.stalled");
    obs_.stall_wakeups = cfg_.metrics->counter("sim.stall.wakeups");
    obs_.drained_accepts = cfg_.metrics->counter("sim.stall.drained_accepts");
    obs_.stall_cycles =
        cfg_.metrics->histogram("sim.stall.segment_cycles", 0.0, 4096.0, 64);
  }
  if (cfg_.critpath != nullptr) cfg_.critpath->begin_run(cfg_.params.P);
  for (ProcId p = 0; p < cfg_.params.P; ++p)
    push_event(0, EvKind::kStartup, p, 0);
}

void Machine::push_event(Cycles t, EvKind kind, ProcId proc,
                         std::uint32_t payload) {
  LOGP_CHECK(t >= now_);
  events_.push(Event{t, event_seq_++, kind, proc, payload});
}

Cycles Machine::run() {
  Event ev;
  while (!events_.empty()) {
    events_.pop_into(ev);
    LOGP_CHECK(ev.t >= now_);
    now_ = ev.t;
    if (++events_processed_ > cfg_.max_events)
      LOGP_CHECK_MSG(false, "event budget exceeded — runaway program?");
    dispatch(ev);
  }
  if (cfg_.critpath != nullptr) cfg_.critpath->on_finish(now_);
  flush_metrics();
  return now_;
}

/// Cold: totals the per-event loop already tracks are published once, after
/// the event queue drains, so attaching a registry adds nothing per event.
void Machine::flush_metrics() {
  if (cfg_.metrics == nullptr) return;
  cfg_.metrics->gauge("sim.events")
      ->set(static_cast<std::int64_t>(events_processed_));
  cfg_.metrics->gauge("sim.msgs.sent")->set(total_messages_);
  cfg_.metrics->gauge("sim.finish.cycles")->set(now_);
  cfg_.metrics->gauge("sim.msg_pool.slots")
      ->set(static_cast<std::int64_t>(msgs_.capacity()));
  cfg_.metrics->gauge("sim.call_pool.slots")
      ->set(static_cast<std::int64_t>(calls_.capacity()));
  std::int64_t backlog = 0;
  for (const auto& proc : procs_)
    backlog = std::max(backlog, proc.stats.max_arrival_backlog);
  cfg_.metrics->gauge("sim.arrival_backlog.max")->set(backlog);
  // Registered only when a plan is attached, so fault-free metric dumps
  // keep their exact historical shape.
  if (cfg_.faults != nullptr)
    cfg_.metrics->gauge("sim.msgs.dropped")->set(msgs_dropped_);
}

Cycles Machine::sample_latency() {
  if (cfg_.latency_min < 0 || cfg_.latency_min == cfg_.params.L)
    return cfg_.params.L;
  return rng_.uniform_in(cfg_.latency_min, cfg_.params.L);
}

Cycles Machine::apply_jitter(Cycles dur) {
  if (cfg_.compute_jitter == 0.0 || dur == 0) return dur;
  const double u = 2.0 * rng_.uniform01() - 1.0;
  const double d = static_cast<double>(dur) * (1.0 + u * cfg_.compute_jitter);
  return std::max<Cycles>(0, static_cast<Cycles>(d + 0.5));
}

void Machine::start_compute(ProcId p, Cycles dur) {
  auto& proc = procs_[static_cast<std::size_t>(p)];
  LOGP_CHECK_MSG(proc.state == CpuState::kIdle, "start_compute: CPU busy");
  LOGP_CHECK(dur >= 0);
  dur = apply_jitter(dur);
  proc.state = CpuState::kCompute;
  proc.stats.compute += dur;
  recorder_.record(p, now_, now_ + dur, trace::Activity::kCompute);
  if (cfg_.critpath != nullptr)
    cfg_.critpath->on_compute(p, now_ + dur, dur);
  push_event(now_ + dur, EvKind::kComputeDone, p, 0);
}

void Machine::start_send(ProcId p, Message m) {
  auto& proc = procs_[static_cast<std::size_t>(p)];
  LOGP_CHECK_MSG(proc.state == CpuState::kIdle, "start_send: CPU busy");
  LOGP_CHECK_MSG(m.dst >= 0 && m.dst < cfg_.params.P, "bad destination");
  LOGP_CHECK(m.nwords <= kMaxMessageWords);
  m.src = p;
  m.bulk_words = 0;
  proc.current_msg = msgs_.emplace(m);
  proc.op_requested = now_;
  proc.dma_words = 0;
  proc.dma_gap = 0;
  if (now_ < proc.send_port_free) {
    proc.state = CpuState::kSendGapWait;
    push_event(proc.send_port_free, EvKind::kSendEngage, p, 0);
  } else {
    engage_send(p, now_);
  }
}

void Machine::start_send_dma(ProcId p, Message m, std::uint64_t words,
                             Cycles gap_per_word) {
  auto& proc = procs_[static_cast<std::size_t>(p)];
  LOGP_CHECK_MSG(proc.state == CpuState::kIdle, "start_send_dma: CPU busy");
  LOGP_CHECK_MSG(m.dst >= 0 && m.dst < cfg_.params.P, "bad destination");
  LOGP_CHECK(m.nwords <= kMaxMessageWords);
  LOGP_CHECK(gap_per_word >= 0);
  m.src = p;
  m.bulk_words = words;
  proc.current_msg = msgs_.emplace(m);
  proc.op_requested = now_;
  proc.dma_words = words;
  proc.dma_gap = gap_per_word;
  if (now_ < proc.send_port_free) {
    proc.state = CpuState::kSendGapWait;
    push_event(proc.send_port_free, EvKind::kSendEngage, p, 0);
  } else {
    engage_send(p, now_);
  }
}

void Machine::engage_send(ProcId p, Cycles t) {
  auto& proc = procs_[static_cast<std::size_t>(p)];
  const Cycles waited = t - proc.op_requested;
  if (waited > 0) {
    proc.stats.gap_wait += waited;
    recorder_.record(p, proc.op_requested, t, trace::Activity::kGapWait,
                     msgs_[proc.current_msg].dst);
  }
  // A DMA stream occupies the port until its last word leaves the NIC;
  // a small message just re-arms the port after the gap.
  proc.send_port_free =
      proc.dma_words > 0
          ? t + cfg_.params.o +
                static_cast<Cycles>(proc.dma_words) * proc.dma_gap
          : t + cfg_.params.g;
  proc.state = CpuState::kSendOverhead;
  proc.stats.send_overhead += cfg_.params.o;
  recorder_.record(p, t, t + cfg_.params.o, trace::Activity::kSendOverhead,
                   msgs_[proc.current_msg].dst);
  if (cfg_.critpath != nullptr)
    cfg_.critpath->on_send_engage(p, t, cfg_.params.o,
                                  proc.send_port_free - t);
  push_event(t + cfg_.params.o, EvKind::kSendOverheadDone, p, 0);
}

void Machine::try_inject(ProcId p, Cycles t) {
  auto& proc = procs_[static_cast<std::size_t>(p)];
  const Message& m = msgs_[proc.current_msg];
  auto& dst = procs_[static_cast<std::size_t>(m.dst)];
  const int cap = static_cast<int>(cfg_.params.capacity());
  if (proc.out_inflight >= cap || dst.in_inflight >= cap) {
    if (obs_.stalls_entered != nullptr) obs_.stalls_entered->add(1);
    proc.state = CpuState::kSendStalled;
    proc.pending_injection = true;
    proc.stall_begin = t;
    blocked_senders_.push_back(p);
    maybe_accept_while_stalled(p);
    return;
  }
  inject(p, t);
}

void Machine::maybe_accept_while_stalled(ProcId p) {
  auto& proc = procs_[static_cast<std::size_t>(p)];
  if (proc.state != CpuState::kSendStalled || proc.arrivals.empty()) return;
  // Close the current stall segment; the processor spends its wait servicing
  // an arrival, then retries the injection (see kAcceptDone).
  if (now_ > proc.stall_begin) {
    proc.stats.stall += now_ - proc.stall_begin;
    recorder_.record(p, proc.stall_begin, now_, trace::Activity::kStall,
                     msgs_[proc.current_msg].dst);
    if (obs_.stall_cycles != nullptr)
      obs_.stall_cycles->observe(static_cast<double>(now_ - proc.stall_begin));
  }
  if (obs_.drained_accepts != nullptr) obs_.drained_accepts->add(1);
  proc.op_requested = now_;
  if (now_ < proc.recv_port_free) {
    proc.state = CpuState::kAcceptGapWait;
    push_event(proc.recv_port_free, EvKind::kAcceptStart, p, 0);
  } else {
    accept_begin(p, now_);
  }
}

void Machine::try_retry_injection(ProcId p) {
  auto& proc = procs_[static_cast<std::size_t>(p)];
  LOGP_CHECK(proc.state == CpuState::kSendStalled && proc.pending_injection);
  const int cap = static_cast<int>(cfg_.params.capacity());
  const ProcId dst_id = msgs_[proc.current_msg].dst;
  const auto& dst = procs_[static_cast<std::size_t>(dst_id)];
  if (proc.out_inflight < cap && dst.in_inflight < cap) {
    inject(p, now_);
  } else {
    blocked_senders_.push_back(p);
    maybe_accept_while_stalled(p);
  }
}

void Machine::inject(ProcId p, Cycles t) {
  auto& proc = procs_[static_cast<std::size_t>(p)];
  const bool was_stalled = proc.pending_injection;
  proc.pending_injection = false;
  const std::uint32_t idx = proc.current_msg;
  const Message& m = msgs_[idx];
  auto& dst = procs_[static_cast<std::size_t>(m.dst)];
  ++proc.out_inflight;
  ++dst.in_inflight;
  ++proc.stats.msgs_sent;
  ++total_messages_;
  // DMA long messages arrive L after the last streamed word.
  const Cycles stream =
      proc.dma_words > 0
          ? static_cast<Cycles>(proc.dma_words) * proc.dma_gap
          : 0;
  proc.dma_words = 0;
  proc.dma_gap = 0;
  // Fault plan: a doomed message is injected normally — the latency draw
  // happens either way (the RNG sequence must not depend on the plan) and
  // capacity slots stay held until the arrival instant — but it vanishes on
  // arrival instead of entering the destination's queue.
  Cycles latency = sample_latency();
  const std::uint64_t msg_id = msg_seq_++;
  bool doomed = false;
  if (cfg_.faults != nullptr) {
    if (cfg_.faults->proc_failed(m.dst, t)) {
      doomed = true;  // a dead destination is a fact, never a choice
    } else {
      doomed = cfg_.faults->message_dropped(msg_id);
      if (cfg_.oracle != nullptr && cfg_.faults->message_droppable()) {
        // Fault-verdict interception: the plan's hash verdict becomes
        // alternative 0 and its negation alternative 1, labelled by whether
        // the branch drops (the explorer budgets total drops on a path).
        const std::uint64_t labels[2] = {doomed ? 1u : 0u, doomed ? 0u : 1u};
        const int k = cfg_.oracle->choose(ChoiceKind::kDrop, 2, labels);
        LOGP_CHECK(k == 0 || k == 1);
        if (k == 1) doomed = !doomed;
      }
    }
  }
  if (cfg_.oracle != nullptr && cfg_.latency_min >= 0 &&
      cfg_.latency_min < cfg_.params.L) {
    // The model only bounds latency by L; with a configured range the
    // adversary may pick any admissible value. Offer the RNG sample (the
    // default — drawn above either way, so the stream never shifts) plus
    // the two extremes, deduplicated.
    std::uint64_t cand[3];
    int n = 0;
    cand[n++] = static_cast<std::uint64_t>(latency);
    for (const Cycles extreme : {cfg_.latency_min, cfg_.params.L}) {
      const auto v = static_cast<std::uint64_t>(extreme);
      bool dup = false;
      for (int i = 0; i < n; ++i) dup |= cand[i] == v;
      if (!dup) cand[n++] = v;
    }
    if (n > 1) {
      const int k = cfg_.oracle->choose(ChoiceKind::kLatency, n, cand);
      LOGP_CHECK(k >= 0 && k < n);
      latency = static_cast<Cycles>(cand[k]);
    }
  }
  const Cycles arrive = t + stream + latency;
  if (cfg_.critpath != nullptr)
    cfg_.critpath->on_inject(p, idx, t, was_stalled, stream, latency);
  push_event(arrive, doomed ? EvKind::kDropArrive : EvKind::kDeliver, m.dst,
             idx);
  proc.state = CpuState::kIdle;
  host_.on_send_done(p);
}

void Machine::start_accept(ProcId p) {
  auto& proc = procs_[static_cast<std::size_t>(p)];
  LOGP_CHECK_MSG(proc.state == CpuState::kIdle, "start_accept: CPU busy");
  LOGP_CHECK_MSG(!proc.arrivals.empty(), "start_accept: nothing arrived");
  proc.op_requested = now_;
  if (now_ < proc.recv_port_free) {
    proc.state = CpuState::kAcceptGapWait;
    push_event(proc.recv_port_free, EvKind::kAcceptStart, p, 0);
  } else {
    accept_begin(p, now_);
  }
}

void Machine::accept_begin(ProcId p, Cycles t) {
  auto& proc = procs_[static_cast<std::size_t>(p)];
  const Cycles waited = t - proc.op_requested;
  if (waited > 0) {
    proc.stats.gap_wait += waited;
    recorder_.record(p, proc.op_requested, t, trace::Activity::kGapWait);
  }
  const std::uint32_t idx = take_arrival(p);
  const Message& m = msgs_[idx];
  // The message leaves the network the moment the processor engages with it.
  --procs_[static_cast<std::size_t>(m.src)].out_inflight;
  --proc.in_inflight;
  LOGP_CHECK(procs_[static_cast<std::size_t>(m.src)].out_inflight >= 0);
  LOGP_CHECK(proc.in_inflight >= 0);
  proc.recv_port_free = t + cfg_.params.g;
  proc.state = CpuState::kRecvOverhead;
  // NOTE: current_msg is NOT touched here — it may hold a stalled outgoing
  // message awaiting injection retry; the incoming message index rides on
  // the kAcceptDone event instead.
  proc.stats.recv_overhead += cfg_.params.o;
  recorder_.record(p, t, t + cfg_.params.o, trace::Activity::kRecvOverhead,
                   m.src);
  if (cfg_.critpath != nullptr)
    cfg_.critpath->on_accept(p, idx, t, cfg_.params.o, cfg_.params.g);
  push_event(t + cfg_.params.o, EvKind::kAcceptDone, p, idx);
  wake_blocked_senders();
}

std::uint32_t Machine::take_arrival(ProcId p) {
  auto& proc = procs_[static_cast<std::size_t>(p)];
  const std::size_t n = proc.arrivals.size();
  if (cfg_.oracle != nullptr && n > 1) {
    // Which pending arrival the processor engages with is a genuine
    // scheduling freedom of the model; expose it as a choice point.
    // Alternative 0 is the FIFO front — the machine's own default.
    std::vector<std::uint64_t> labels(n);
    for (std::size_t i = 0; i < n; ++i)
      labels[i] = arrival_label(msgs_[proc.arrivals[i]]);
    const int k = cfg_.oracle->choose(ChoiceKind::kAcceptOrder,
                                      static_cast<int>(n), labels.data());
    LOGP_CHECK(k >= 0 && static_cast<std::size_t>(k) < n);
    const std::uint32_t idx = proc.arrivals[static_cast<std::size_t>(k)];
    // Remove slot k, preserving the relative order of the others: shift the
    // prefix right by one and drop the duplicated front.
    for (std::size_t i = static_cast<std::size_t>(k); i > 0; --i)
      proc.arrivals[i] = proc.arrivals[i - 1];
    proc.arrivals.pop_front();
    return idx;
  }
  const std::uint32_t idx = proc.arrivals.front();
  proc.arrivals.pop_front();
  return idx;
}

void Machine::wake_blocked_senders() {
  if (blocked_senders_.empty()) return;
  const int cap = static_cast<int>(cfg_.params.capacity());
  // FIFO by stall time; re-check capacity per candidate since each wake
  // consumes slots. Injecting runs Host callbacks, which can stall new
  // senders (appending to blocked_senders_) or recurse into this function —
  // so detach the current list first and re-append survivors.
  std::vector<ProcId> pending;
  pending.swap(blocked_senders_);
  for (const ProcId p : pending) {
    auto& proc = procs_[static_cast<std::size_t>(p)];
    if (proc.state != CpuState::kSendStalled) continue;  // woken by recursion
    const ProcId dst_id = msgs_[proc.current_msg].dst;
    const auto& dst = procs_[static_cast<std::size_t>(dst_id)];
    if (proc.out_inflight < cap && dst.in_inflight < cap) {
      const Cycles stalled = now_ - proc.stall_begin;
      proc.stats.stall += stalled;
      recorder_.record(p, proc.stall_begin, now_, trace::Activity::kStall,
                       dst_id);
      if (obs_.stall_wakeups != nullptr) obs_.stall_wakeups->add(1);
      if (obs_.stall_cycles != nullptr)
        obs_.stall_cycles->observe(static_cast<double>(stalled));
      inject(p, now_);
    } else {
      blocked_senders_.push_back(p);
    }
  }
}

void Machine::schedule_call(Cycles t, Call fn) {
  LOGP_CHECK(t >= now_);
  push_event(t, EvKind::kCall, -1, calls_.emplace(std::move(fn)));
}

ProcStats Machine::total_stats() const {
  ProcStats total;
  for (const auto& proc : procs_) {
    total.compute += proc.stats.compute;
    total.send_overhead += proc.stats.send_overhead;
    total.recv_overhead += proc.stats.recv_overhead;
    total.stall += proc.stats.stall;
    total.gap_wait += proc.stats.gap_wait;
    total.msgs_sent += proc.stats.msgs_sent;
    total.msgs_received += proc.stats.msgs_received;
    total.max_arrival_backlog =
        std::max(total.max_arrival_backlog, proc.stats.max_arrival_backlog);
  }
  return total;
}

void Machine::dispatch(const Event& ev) {
  switch (ev.kind) {
    case EvKind::kStartup:
      host_.on_startup(ev.proc);
      break;
    case EvKind::kComputeDone: {
      auto& proc = procs_[static_cast<std::size_t>(ev.proc)];
      LOGP_CHECK(proc.state == CpuState::kCompute);
      proc.state = CpuState::kIdle;
      host_.on_compute_done(ev.proc);
      break;
    }
    case EvKind::kSendEngage: {
      auto& proc = procs_[static_cast<std::size_t>(ev.proc)];
      LOGP_CHECK(proc.state == CpuState::kSendGapWait);
      engage_send(ev.proc, ev.t);
      break;
    }
    case EvKind::kSendOverheadDone: {
      auto& proc = procs_[static_cast<std::size_t>(ev.proc)];
      LOGP_CHECK(proc.state == CpuState::kSendOverhead);
      try_inject(ev.proc, ev.t);
      break;
    }
    case EvKind::kDeliver: {
      auto& proc = procs_[static_cast<std::size_t>(ev.proc)];
      proc.arrivals.push_back(ev.payload);
      proc.stats.max_arrival_backlog =
          std::max(proc.stats.max_arrival_backlog,
                   static_cast<std::int64_t>(proc.arrivals.size()));
      host_.on_message_arrived(ev.proc);
      maybe_accept_while_stalled(ev.proc);
      break;
    }
    case EvKind::kDropArrive: {
      // The message leaves the network at its arrival instant, exactly when
      // a healthy delivery would have been queued — so senders throttled by
      // the capacity bound observe the same slot-release timing whether the
      // message survives or not. Nobody is notified; detecting the loss is
      // the reliable-delivery layer's job (runtime/reliable.hpp).
      auto& proc = procs_[static_cast<std::size_t>(ev.proc)];
      const Message& m = msgs_[ev.payload];
      --procs_[static_cast<std::size_t>(m.src)].out_inflight;
      --proc.in_inflight;
      LOGP_CHECK(procs_[static_cast<std::size_t>(m.src)].out_inflight >= 0);
      LOGP_CHECK(proc.in_inflight >= 0);
      ++msgs_dropped_;
      if (cfg_.critpath != nullptr) cfg_.critpath->on_drop(ev.payload);
      msgs_.release(ev.payload);
      wake_blocked_senders();
      break;
    }
    case EvKind::kAcceptStart: {
      auto& proc = procs_[static_cast<std::size_t>(ev.proc)];
      LOGP_CHECK(proc.state == CpuState::kAcceptGapWait);
      accept_begin(ev.proc, ev.t);
      break;
    }
    case EvKind::kAcceptDone: {
      auto& proc = procs_[static_cast<std::size_t>(ev.proc)];
      LOGP_CHECK(proc.state == CpuState::kRecvOverhead);
      ++proc.stats.msgs_received;
      const Message m = msgs_[ev.payload];
      msgs_.release(ev.payload);
      if (proc.pending_injection) {
        // This reception interrupted a capacity stall; go back to retrying
        // the outgoing message. The CPU stays non-idle for the Host.
        proc.state = CpuState::kSendStalled;
        proc.stall_begin = ev.t;
        host_.on_accept_done(ev.proc, m);
        try_retry_injection(ev.proc);
      } else {
        proc.state = CpuState::kIdle;
        host_.on_accept_done(ev.proc, m);
      }
      break;
    }
    case EvKind::kCall: {
      Call fn = std::move(calls_[ev.payload]);
      calls_.release(ev.payload);
      fn();
      break;
    }
  }
}

}  // namespace logp::sim

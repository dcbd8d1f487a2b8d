// Scheduler: the policy layer between user programs (Task coroutines,
// active-message handlers) and the LogP Machine.
//
// Per processor the scheduler keeps a ready queue of resumable coroutines, a
// mailbox of received-but-unclaimed messages, and the set of coroutines
// blocked in recv(). Whenever the CPU is free it (by default) first spends
// receive overhead on any delivered message — draining the network keeps the
// capacity constraint honest — and then resumes ready coroutines.
//
// The SPMD entry point is a Program: a factory invoked once per processor at
// time zero. Collectives (barrier, broadcast, ...) are ordinary Tasks built
// on send/recv — the model performs all synchronization with messages.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/task.hpp"
#include "sim/machine.hpp"
#include "util/check.hpp"
#include "util/ring_deque.hpp"

namespace logp::obs {
class Counter;
class Gauge;
}  // namespace logp::obs

namespace logp::runtime {

using sim::Message;

/// Matches any tag / any source in recv().
inline constexpr std::int32_t kAnyTag = INT32_MIN;
inline constexpr ProcId kAnySrc = -1;

/// Tags below this value are reserved for the runtime (barriers, fragments).
inline constexpr std::int32_t kReservedTagBase = -1000000;

class Scheduler;

/// A processor-local view handed to every task and handler.
class Ctx {
 public:
  Ctx(Scheduler* sched, ProcId proc) : sched_(sched), proc_(proc) {}

  ProcId proc() const { return proc_; }
  int nprocs() const;
  Cycles now() const;
  const Params& params() const;
  Scheduler& scheduler() const { return *sched_; }

  /// Awaitable: occupy the CPU for `cycles`.
  auto compute(Cycles cycles) const;
  /// Awaitable: transmit one small message (pays gap wait, o, and any
  /// capacity stall; resumes at injection).
  auto send(Message m) const;
  auto send(ProcId dst, std::int32_t tag) const;
  auto send(ProcId dst, std::int32_t tag, std::uint64_t w0) const;
  auto send(ProcId dst, std::int32_t tag, std::uint64_t w0,
            std::uint64_t w1) const;
  /// Awaitable: DMA long-message send (Section 5.4): the CPU is engaged for
  /// the setup overhead only; the NIC streams `words` payload words at
  /// `gap_per_word` cycles each while the caller computes. The receiver sees
  /// one message with bulk_words == words and pays one receive overhead.
  auto send_dma(ProcId dst, std::int32_t tag, std::uint64_t words,
                Cycles gap_per_word) const;
  /// Awaitable: take one message matching (tag, src) — receive overhead was
  /// already paid when the message was accepted off the network.
  auto recv(std::int32_t tag = kAnyTag, ProcId src = kAnySrc) const;
  /// Awaitable: recv with a deadline. Resumes with ok == true and the
  /// message when one matching (tag, src) arrives before absolute time
  /// `deadline`, else with ok == false at the deadline. Always resolves, so
  /// a waiter can never deadlock the quiescence check — the primitive the
  /// failure detector and the epoch-aware collectives are built on.
  auto recv_until(Cycles deadline, std::int32_t tag = kAnyTag,
                  ProcId src = kAnySrc) const;
  /// Awaitable: resume at absolute time t (>= now). Models waiting without
  /// occupying the CPU; other tasks on this processor may run meanwhile.
  auto sleep_until(Cycles t) const;

  /// Start another task on this processor; it runs concurrently with the
  /// caller (interleaved at await points; never in parallel — one CPU).
  void spawn(Task t) const;

 private:
  Scheduler* sched_;
  ProcId proc_;
};

/// Result slot of Ctx::recv_until: ok == false means the deadline fired
/// before a matching message arrived (msg is untouched in that case).
struct TimedRecv {
  bool ok = false;
  Message msg{};
};

using Program = std::function<Task(Ctx)>;
/// Active-message handler: runs in zero simulated time right after the
/// receive overhead of a matching message completes. It may mutate local
/// state and spawn tasks, but cannot itself block.
using Handler = std::function<void(Ctx, const Message&)>;

/// Thrown when the simulation quiesces with blocked tasks remaining.
class DeadlockError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Scheduler final : public sim::Host {
 public:
  explicit Scheduler(sim::MachineConfig cfg);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler() override;

  /// The program started on every processor at t = 0.
  void set_program(Program program) { program_ = std::move(program); }
  /// Install an active-message handler for `tag` on all processors.
  void set_handler(std::int32_t tag, Handler h);

  /// Runs to quiescence. Throws DeadlockError if any task remains blocked,
  /// and rethrows the first exception escaping any task.
  Cycles run();

  sim::Machine& machine() { return machine_; }
  const sim::Machine& machine() const { return machine_; }

  /// Sticky fault marker: resilient collectives (and any other fault-aware
  /// code) call this when they had to route around a failure, and the sweep
  /// harness surfaces it as ExperimentResult::degraded. Never reset.
  void mark_degraded() { degraded_ = true; }
  bool degraded() const { return degraded_; }

  /// Re-delivers `m` to p's runtime layer in zero simulated time: the usual
  /// handler -> recv-waiter -> mailbox cascade runs as if the message had
  /// just been accepted, but no machine costs are paid. This is how the
  /// reliable-delivery layer (runtime/reliable.hpp) hands a payload it
  /// already paid full LogP costs for — under its protocol tag — back to
  /// the user under the user's tag, without double-charging o.
  void inject_local(ProcId p, const Message& m);
  /// Queue a bare continuation on p's ready queue and pump. Used by code
  /// that resumes coroutines from machine timer callbacks (e.g. the
  /// reliable layer's retransmit timers).
  void push_ready(ProcId p, std::coroutine_handle<> h);

  // ---- used by awaitables / Ctx (not user-facing) ----
  void spawn_on(ProcId p, Task t);
  void op_compute(ProcId p, Cycles dur, std::coroutine_handle<> h);
  void op_send(ProcId p, const Message& m, std::coroutine_handle<> h);
  void op_send_dma(ProcId p, const Message& m, std::uint64_t words, Cycles gap,
                   std::coroutine_handle<> h);
  bool try_take_mailbox(ProcId p, std::int32_t tag, ProcId src, Message* out);
  void add_recv_waiter(ProcId p, std::int32_t tag, ProcId src,
                       std::coroutine_handle<> h, Message* slot);
  void add_timed_recv_waiter(ProcId p, std::int32_t tag, ProcId src,
                             std::coroutine_handle<> h, TimedRecv* out,
                             Cycles deadline);
  void op_sleep(ProcId p, Cycles t, std::coroutine_handle<> h);

 private:
  struct RecvWaiter {
    std::int32_t tag;
    ProcId src;
    std::coroutine_handle<> handle;
    Message* slot;
    /// Timed waiters (recv_until): the completion flag to set on a match,
    /// and a nonzero id the deadline timer uses to cancel the waiter. A
    /// timer firing after the match finds no waiter with its id — a no-op,
    /// the same gen-guard discipline as the reliable layer's timers.
    TimedRecv* timed = nullptr;
    std::uint64_t id = 0;
  };

  struct PState {
    util::RingDeque<std::coroutine_handle<>> ready;
    std::coroutine_handle<> cpu_owner = nullptr;  ///< awaiting compute/send
    std::vector<RecvWaiter> recv_waiters;  ///< tiny; matched front-to-back
    std::vector<Message> mailbox;          ///< tiny; matched front-to-back
    std::vector<Task> toplevel;  ///< owned frames (spawned tasks)
    bool pumping = false;
    std::int64_t sleepers = 0;
  };

  // sim::Host
  void on_startup(ProcId p) override;
  void on_compute_done(ProcId p) override;
  void on_send_done(ProcId p) override;
  void on_accept_done(ProcId p, const Message& m) override;
  void on_message_arrived(ProcId p) override;

  void pump(ProcId p);
  void deliver(ProcId p, const Message& m);
  void resume(ProcId p, std::coroutine_handle<> h);
  void sweep_finished(PState& ps);
  static bool matches(const RecvWaiter& w, const Message& m) {
    return (w.tag == kAnyTag || w.tag == m.tag) &&
           (w.src == kAnySrc || w.src == m.src);
  }
  void note_error(std::exception_ptr e) {
    if (!first_error_) first_error_ = e;
  }

  /// rt.* metrics, resolved from the machine config's registry at
  /// construction; all null when no registry is attached, so updates are
  /// one predicted branch.
  struct Instruments {
    obs::Counter* tasks_spawned = nullptr;
    obs::Counter* handlers_invoked = nullptr;
    obs::Gauge* mailbox_depth = nullptr;
    obs::Gauge* recv_waiters_depth = nullptr;
  };

  sim::Machine machine_;
  std::uint64_t next_waiter_id_ = 1;
  Program program_;
  std::vector<std::pair<std::int32_t, Handler>> handlers_;
  std::vector<PState> pstates_;
  std::exception_ptr first_error_;
  bool ran_ = false;
  bool degraded_ = false;
  Instruments obs_;
};

// ---- Ctx inline implementations ------------------------------------------

namespace detail {

struct ComputeAwaiter {
  Scheduler* s;
  ProcId p;
  Cycles dur;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { s->op_compute(p, dur, h); }
  void await_resume() const noexcept {}
};

struct SendAwaiter {
  Scheduler* s;
  ProcId p;
  Message m;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { s->op_send(p, m, h); }
  void await_resume() const noexcept {}
};

struct SendDmaAwaiter {
  Scheduler* s;
  ProcId p;
  Message m;
  std::uint64_t words;
  Cycles gap;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    s->op_send_dma(p, m, words, gap, h);
  }
  void await_resume() const noexcept {}
};

struct RecvAwaiter {
  Scheduler* s;
  ProcId p;
  std::int32_t tag;
  ProcId src;
  Message msg{};
  bool await_ready() { return s->try_take_mailbox(p, tag, src, &msg); }
  void await_suspend(std::coroutine_handle<> h) {
    s->add_recv_waiter(p, tag, src, h, &msg);
  }
  Message await_resume() const noexcept { return msg; }
};

struct TimedRecvAwaiter {
  Scheduler* s;
  ProcId p;
  std::int32_t tag;
  ProcId src;
  Cycles deadline;
  TimedRecv out{};
  bool await_ready() {
    if (s->try_take_mailbox(p, tag, src, &out.msg)) {
      out.ok = true;
      return true;
    }
    return false;
  }
  void await_suspend(std::coroutine_handle<> h) {
    s->add_timed_recv_waiter(p, tag, src, h, &out, deadline);
  }
  TimedRecv await_resume() const noexcept { return out; }
};

struct SleepAwaiter {
  Scheduler* s;
  ProcId p;
  Cycles t;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { s->op_sleep(p, t, h); }
  void await_resume() const noexcept {}
};

}  // namespace detail

inline auto Ctx::compute(Cycles cycles) const {
  return detail::ComputeAwaiter{sched_, proc_, cycles};
}

inline auto Ctx::send(Message m) const {
  m.src = proc_;
  return detail::SendAwaiter{sched_, proc_, m};
}

inline auto Ctx::send(ProcId dst, std::int32_t tag) const {
  Message m;
  m.dst = dst;
  m.tag = tag;
  return send(m);
}

inline auto Ctx::send(ProcId dst, std::int32_t tag, std::uint64_t w0) const {
  Message m;
  m.dst = dst;
  m.tag = tag;
  m.push_word(w0);
  return send(m);
}

inline auto Ctx::send(ProcId dst, std::int32_t tag, std::uint64_t w0,
                      std::uint64_t w1) const {
  Message m;
  m.dst = dst;
  m.tag = tag;
  m.push_word(w0);
  m.push_word(w1);
  return send(m);
}

inline auto Ctx::send_dma(ProcId dst, std::int32_t tag, std::uint64_t words,
                          Cycles gap_per_word) const {
  Message m;
  m.dst = dst;
  m.tag = tag;
  m.src = proc_;
  return detail::SendDmaAwaiter{sched_, proc_, m, words, gap_per_word};
}

inline auto Ctx::recv(std::int32_t tag, ProcId src) const {
  return detail::RecvAwaiter{sched_, proc_, tag, src, {}};
}

inline auto Ctx::recv_until(Cycles deadline, std::int32_t tag,
                            ProcId src) const {
  return detail::TimedRecvAwaiter{sched_, proc_, tag, src, deadline, {}};
}

inline auto Ctx::sleep_until(Cycles t) const {
  return detail::SleepAwaiter{sched_, proc_, t};
}

inline void Ctx::spawn(Task t) const { sched_->spawn_on(proc_, std::move(t)); }

inline int Ctx::nprocs() const { return sched_->machine().params().P; }
inline Cycles Ctx::now() const { return sched_->machine().now(); }
inline const Params& Ctx::params() const {
  return sched_->machine().params();
}

}  // namespace logp::runtime

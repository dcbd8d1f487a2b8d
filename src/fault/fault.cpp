#include "fault/fault.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace logp::fault {

namespace {

// SplitMix64 finalizer: the same avalanche the packet simulator's open
// addressing uses. All fault decisions reduce to one or two of these.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Domain-separation salts: each decision family hashes a disjoint stream.
constexpr std::uint64_t kDropSalt = 0xd201;
constexpr std::uint64_t kHopSalt = 0xd202;
constexpr std::uint64_t kCorruptSalt = 0xd203;
constexpr std::uint64_t kDelaySalt = 0xd204;
constexpr std::uint64_t kMsgSalt = 0xd205;

std::uint64_t decide(std::uint64_t seed, std::uint64_t salt, std::uint64_t a,
                     std::uint64_t b) {
  return mix(seed ^ mix(salt ^ mix(a) ^ (b * 0x9e3779b97f4a7c15ULL)));
}

double to_unit(std::uint64_t h) {
  // 53 high bits -> [0, 1); the standard doubling of a hash into a uniform.
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

bool FaultPlan::empty() const {
  return !has_packet_faults() && msg_drop_rate == 0.0 && proc_faults.empty();
}

bool FaultPlan::has_packet_faults() const {
  return drop_rate > 0.0 || corrupt_rate > 0.0 || !drop_packets.empty() ||
         !link_faults.empty() || max_injection_delay > 0;
}

void FaultPlan::validate() const {
  LOGP_CHECK_MSG(drop_rate >= 0.0 && drop_rate <= 1.0,
                 "drop_rate must be in [0, 1], got " << drop_rate);
  LOGP_CHECK_MSG(corrupt_rate >= 0.0 && corrupt_rate <= 1.0,
                 "corrupt_rate must be in [0, 1], got " << corrupt_rate);
  LOGP_CHECK_MSG(msg_drop_rate >= 0.0 && msg_drop_rate <= 1.0,
                 "msg_drop_rate must be in [0, 1], got " << msg_drop_rate);
  LOGP_CHECK_MSG(retry_timeout >= 0,
                 "retry_timeout must be non-negative, got " << retry_timeout);
  LOGP_CHECK_MSG(max_retries >= 0,
                 "max_retries must be non-negative, got " << max_retries);
  LOGP_CHECK_MSG(max_injection_delay >= 0,
                 "max_injection_delay must be non-negative, got "
                     << max_injection_delay);
  for (const LinkFault& lf : link_faults) {
    LOGP_CHECK_MSG(lf.degrade >= 0,
                   "link (" << lf.u << " -> " << lf.v
                            << ") degrade must be >= 0, got " << lf.degrade);
    LOGP_CHECK_MSG(lf.from <= lf.to, "link (" << lf.u << " -> " << lf.v
                                              << ") interval is reversed");
  }
  for (const ProcFault& pf : proc_faults) {
    LOGP_CHECK_MSG(pf.proc >= 0, "proc fault names processor " << pf.proc);
    LOGP_CHECK_MSG(pf.fail_at >= 0, "proc " << pf.proc
                                            << " fail_at must be >= 0, got "
                                            << pf.fail_at);
    LOGP_CHECK_MSG(pf.recover_at < 0 || pf.recover_at >= pf.fail_at,
                   "proc " << pf.proc << " recover_at " << pf.recover_at
                           << " precedes fail_at " << pf.fail_at);
  }
}

bool FaultPlan::drop_attempt(std::int64_t inj, int attempt) const {
  if (attempt == 0 && !drop_packets.empty() &&
      std::find(drop_packets.begin(), drop_packets.end(), inj) !=
          drop_packets.end())
    return true;
  if (drop_rate <= 0.0) return false;
  return to_unit(decide(seed, kDropSalt, static_cast<std::uint64_t>(inj),
                        static_cast<std::uint64_t>(attempt))) < drop_rate;
}

int FaultPlan::drop_hop(std::int64_t inj, int attempt, int hops) const {
  if (hops <= 1) return 0;
  return static_cast<int>(decide(seed, kHopSalt,
                                 static_cast<std::uint64_t>(inj),
                                 static_cast<std::uint64_t>(attempt)) %
                          static_cast<std::uint64_t>(hops));
}

bool FaultPlan::corrupt_attempt(std::int64_t inj, int attempt) const {
  if (corrupt_rate <= 0.0) return false;
  return to_unit(decide(seed, kCorruptSalt, static_cast<std::uint64_t>(inj),
                        static_cast<std::uint64_t>(attempt))) < corrupt_rate;
}

Cycles FaultPlan::injection_delay(int src, Cycles born) const {
  if (max_injection_delay <= 0) return 0;
  return static_cast<Cycles>(decide(seed, kDelaySalt,
                                    static_cast<std::uint64_t>(src),
                                    static_cast<std::uint64_t>(born)) %
                             static_cast<std::uint64_t>(max_injection_delay +
                                                        1));
}

int FaultPlan::link_degrade(int u, int v, Cycles t) const {
  // Later entries win so a plan can carve exceptions out of a broad fault.
  int deg = 1;
  for (const LinkFault& lf : link_faults)
    if (lf.u == u && lf.v == v && t >= lf.from && t < lf.to) deg = lf.degrade;
  return deg;
}

bool FaultPlan::message_dropped(std::uint64_t msg_id) const {
  if (msg_drop_rate <= 0.0) return false;
  return to_unit(decide(seed, kMsgSalt, msg_id, 0)) < msg_drop_rate;
}

bool FaultPlan::proc_fails(ProcId p) const {
  for (const ProcFault& pf : proc_faults)
    if (pf.proc == p) return true;
  return false;
}

bool FaultPlan::proc_failed(ProcId p, Cycles t) const {
  for (const ProcFault& pf : proc_faults)
    if (pf.proc == p && t >= pf.fail_at &&
        (pf.recover_at < 0 || t < pf.recover_at))
      return true;
  return false;
}

Cycles FaultPlan::proc_recovers_at(ProcId p, Cycles t) const {
  Cycles best = -1;
  for (const ProcFault& pf : proc_faults)
    if (pf.proc == p && t >= pf.fail_at && pf.recover_at >= 0 &&
        t < pf.recover_at && (best < 0 || pf.recover_at < best))
      best = pf.recover_at;
  return best;
}

}  // namespace logp::fault

// Fault-injection contracts:
//
//  * An empty FaultPlan is indistinguishable from no plan at all — the
//    engines take their unmodified fast paths, bit for bit.
//  * A seeded plan is deterministic: fault decisions are pure hashes of
//    (seed, injection id, attempt), never of processing order, so repeated
//    runs agree on the full result + telemetry surface.
//  * Loss accounting closes: a fully drained run leaves nothing undrained —
//    every injection is either delivered or declared lost.
//  * Degradation is monotone in the drop rate.
//  * The checkpoint store round-trips payloads exactly (hex-float doubles)
//    and map_checkpointed resumes to byte-identical results.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "exp/checkpoint.hpp"
#include "exp/sweep.hpp"
#include "fault/fault.hpp"
#include "net/packet_sim.hpp"
#include "net/topology.hpp"
#include "obs/net_telemetry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace logp {
namespace {

net::PacketSimConfig base_config() {
  net::PacketSimConfig cfg;
  cfg.injection_rate = 0.02;
  cfg.duration = 10000;
  // No warmup: `delivered` then covers every injection, so the loss
  // accounting identity injected == delivered + lost + undrained is exact.
  cfg.warmup = 0;
  return cfg;
}

fault::FaultPlan lossy_plan(const net::PacketSimConfig& cfg) {
  fault::FaultPlan fp;
  fp.drop_rate = 0.05;
  fp.corrupt_rate = 0.01;
  fp.retry_timeout = 4 * net::lookahead(cfg);
  fp.max_retries = 3;
  fp.max_injection_delay = 5;
  return fp;
}

void expect_same_run(const net::PacketSimResult& a,
                     const net::PacketSimResult& b) {
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.undrained, b.undrained);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.retransmitted, b.retransmitted);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.peak_in_flight, b.peak_in_flight);
  EXPECT_EQ(a.pool_slots, b.pool_slots);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.latency.variance(), b.latency.variance());
  EXPECT_EQ(a.latency.min(), b.latency.min());
  EXPECT_EQ(a.latency.max(), b.latency.max());
  EXPECT_EQ(a.p95_latency, b.p95_latency);
  EXPECT_EQ(a.throughput, b.throughput);
}

void expect_same_telemetry(const obs::NetTelemetry& a,
                           const obs::NetTelemetry& b) {
  EXPECT_EQ(a.horizon, b.horizon);
  ASSERT_EQ(a.links.size(), b.links.size());
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    EXPECT_EQ(a.links[i].packets, b.links[i].packets) << "link " << i;
    EXPECT_EQ(a.links[i].busy, b.links[i].busy) << "link " << i;
    EXPECT_EQ(a.links[i].queue_wait, b.links[i].queue_wait) << "link " << i;
    EXPECT_EQ(a.links[i].drops, b.links[i].drops) << "link " << i;
  }
  ASSERT_EQ(a.in_flight.size(), b.in_flight.size());
  for (std::size_t i = 0; i < a.in_flight.size(); ++i)
    EXPECT_EQ(a.in_flight[i], b.in_flight[i]) << "sample " << i;
  ASSERT_EQ(a.retransmits.size(), b.retransmits.size());
  for (std::size_t i = 0; i < a.retransmits.size(); ++i)
    EXPECT_EQ(a.retransmits[i], b.retransmits[i]) << "retx sample " << i;
}

TEST(FaultPlan, EmptyPlanIsByteIdenticalToNoPlan) {
  const auto topo = net::make_mesh2d(8, 8, true);
  net::PacketSimConfig cfg = base_config();
  const auto bare = net::run_packet_sim(*topo, cfg);
  fault::FaultPlan empty;
  EXPECT_TRUE(empty.empty());
  cfg.faults = &empty;
  const auto with_plan = net::run_packet_sim(*topo, cfg);
  expect_same_run(bare, with_plan);
  EXPECT_EQ(with_plan.dropped, 0);
  EXPECT_EQ(with_plan.retransmitted, 0);
}

TEST(FaultPlan, SeededPlanRepeatRunIdentical) {
  const auto topo = net::make_mesh2d(8, 8, true);
  net::PacketSimConfig base = base_config();
  const fault::FaultPlan fp = lossy_plan(base);
  base.faults = &fp;
  obs::NetTelemetry ref_telem;
  ref_telem.sample_every = 500;
  base.telemetry = &ref_telem;
  const auto ref = net::run_packet_sim(*topo, base);
  // The plan actually bites — otherwise this test pins nothing.
  EXPECT_GT(ref.dropped, 0);
  EXPECT_GT(ref.corrupted, 0);
  EXPECT_GT(ref.retransmitted, 0);
  EXPECT_FALSE(ref_telem.retransmits.empty());
  // Repeated runs of the same seeded plan, each into a fresh sink, agree on
  // every result field and every telemetry row and sample.
  for (int rep = 1; rep <= 2; ++rep) {
    SCOPED_TRACE("repeat " + std::to_string(rep));
    net::PacketSimConfig cfg = base;
    obs::NetTelemetry telem;
    telem.sample_every = 500;
    cfg.telemetry = &telem;
    const auto r = net::run_packet_sim(*topo, cfg);
    expect_same_run(ref, r);
    expect_same_telemetry(ref_telem, telem);
  }
}

TEST(FaultPlan, LossAccountingCloses) {
  const auto topo = net::make_mesh2d(8, 8, true);
  for (const int retries : {0, 1}) {
    SCOPED_TRACE("max_retries=" + std::to_string(retries));
    net::PacketSimConfig cfg = base_config();
    fault::FaultPlan fp;
    fp.drop_rate = 0.1;
    fp.retry_timeout = retries > 0 ? 4 * net::lookahead(cfg) : 0;
    fp.max_retries = retries;
    cfg.faults = &fp;
    const auto r = net::run_packet_sim(*topo, cfg);
    EXPECT_GT(r.dropped, 0);
    EXPECT_GT(r.lost, 0);  // finite retries: some packets exhaust them
    // Full drain: every injection was either delivered or declared lost.
    // (`delivered` itself only counts in-window deliveries — packets born
    // near the window close finish during the drain — so the closing
    // identity is undrained == 0, not injected == delivered + lost.)
    EXPECT_FALSE(r.truncated);
    EXPECT_EQ(r.undrained, 0);
    EXPECT_LE(r.delivered + r.lost, r.injected);
    if (retries == 0) {
      // Losses are final: every dropped attempt is a lost packet.
      EXPECT_EQ(r.retransmitted, 0);
      EXPECT_EQ(r.lost, r.dropped + r.corrupted);
    } else {
      EXPECT_GT(r.retransmitted, 0);
      // Retries recover most losses: far fewer packets die than attempts.
      EXPECT_LT(r.lost, r.dropped / 4);
    }
  }
}

TEST(FaultPlan, RetriesRaiseDeliveryAndLatency) {
  const auto topo = net::make_mesh2d(8, 8, true);
  net::PacketSimConfig no_retry = base_config();
  fault::FaultPlan fp0;
  fp0.drop_rate = 0.1;
  no_retry.faults = &fp0;
  const auto r0 = net::run_packet_sim(*topo, no_retry);

  net::PacketSimConfig with_retry = base_config();
  fault::FaultPlan fp3 = fp0;
  fp3.retry_timeout = 4 * net::lookahead(with_retry);
  fp3.max_retries = 3;
  with_retry.faults = &fp3;
  const auto r3 = net::run_packet_sim(*topo, with_retry);

  EXPECT_EQ(r0.injected, r3.injected);  // same injection trajectory
  EXPECT_GT(r3.delivered, r0.delivered);
  EXPECT_LT(r3.lost, r0.lost);
  // A retried delivery waited at least one retry_timeout: the latency tail
  // must stretch relative to drop-and-forget.
  EXPECT_GT(r3.latency.max(), r0.latency.max());
}

TEST(FaultPlan, DegradationIsMonotoneInDropRate) {
  const auto topo = net::make_mesh2d(8, 8, true);
  double last_mean = 0.0;
  std::int64_t last_retx = -1;
  for (const double rate : {0.0, 0.02, 0.05, 0.1}) {
    SCOPED_TRACE("drop_rate=" + std::to_string(rate));
    net::PacketSimConfig cfg = base_config();
    fault::FaultPlan fp;
    fp.drop_rate = rate;
    fp.retry_timeout = 4 * net::lookahead(cfg);
    fp.max_retries = 6;
    cfg.faults = &fp;
    const auto r = net::run_packet_sim(*topo, cfg);
    EXPECT_GT(r.latency.mean(), last_mean);
    EXPECT_GT(r.retransmitted, last_retx);
    last_mean = r.latency.mean();
    last_retx = r.retransmitted;
  }
}

TEST(FaultPlan, TargetedDropsAndDeadLinks) {
  const auto topo = net::make_mesh2d(8, 8, true);
  // Targeted packet kills: the listed injection ids lose their first
  // attempt; without retries they are exactly the lost packets.
  net::PacketSimConfig cfg = base_config();
  fault::FaultPlan fp;
  fp.drop_packets = {0, 1, 2, 100, 5000};
  cfg.faults = &fp;
  const auto r = net::run_packet_sim(*topo, cfg);
  EXPECT_EQ(r.lost, 5);
  EXPECT_EQ(r.dropped, 5);
  EXPECT_EQ(r.undrained, 0);

  // A link killed for the whole run drops every attempted traversal and
  // attributes the drops to itself in telemetry.
  net::PacketSimConfig kcfg = base_config();
  fault::FaultPlan kill;
  kill.link_faults.push_back(
      fault::LinkFault{0, 1, 0, kcfg.duration * 100, 0});
  obs::NetTelemetry telem;
  kcfg.telemetry = &telem;
  kcfg.faults = &kill;
  const auto kr = net::run_packet_sim(*topo, kcfg);
  EXPECT_GT(kr.dropped, 0);
  EXPECT_EQ(kr.lost, kr.dropped);  // no retries configured
  std::int64_t attributed = 0;
  for (const auto& l : telem.links) attributed += l.drops;
  EXPECT_EQ(attributed, kr.dropped);

  // Degrading links (service x4) slows the same traffic down.
  net::PacketSimConfig dcfg = base_config();
  fault::FaultPlan slow;
  for (int u = 0; u < 8; ++u)
    slow.link_faults.push_back(
        fault::LinkFault{u, u + 1, 0, dcfg.duration * 100, 4});
  dcfg.faults = &slow;
  const auto dr = net::run_packet_sim(*topo, dcfg);
  const auto healthy = net::run_packet_sim(*topo, base_config());
  EXPECT_GT(dr.latency.mean(), healthy.latency.mean());
  EXPECT_EQ(dr.dropped, 0);
}

TEST(FaultPlan, ValidateRejectsBadKnobs) {
  fault::FaultPlan fp;
  fp.drop_rate = 1.5;
  EXPECT_THROW(fp.validate(), util::check_error);
  fp = {};
  fp.corrupt_rate = -0.1;
  EXPECT_THROW(fp.validate(), util::check_error);
  fp = {};
  fp.retry_timeout = -1;
  EXPECT_THROW(fp.validate(), util::check_error);
  fp = {};
  fp.max_retries = -2;
  EXPECT_THROW(fp.validate(), util::check_error);
  fp = {};
  fp.link_faults.push_back(fault::LinkFault{0, 1, 10, 5, 2});  // to < from
  EXPECT_THROW(fp.validate(), util::check_error);
  fp = {};
  fp.msg_drop_rate = 2.0;
  EXPECT_THROW(fp.validate(), util::check_error);
}

TEST(FaultPlan, RetryTimeoutBelowLookaheadIsRejected) {
  const auto topo = net::make_mesh2d(4, 4, true);
  net::PacketSimConfig cfg = base_config();
  fault::FaultPlan fp;
  fp.drop_rate = 0.05;
  fp.retry_timeout = net::lookahead(cfg) - 1;
  fp.max_retries = 1;
  cfg.faults = &fp;
  EXPECT_THROW(net::run_packet_sim(*topo, cfg), util::check_error);
}

TEST(FaultPlan, LinkFaultOutsideTopologyIsRejected) {
  // A 4x4 torus has nodes 0..15; a plan naming node 16 (or a negative id)
  // describes a link that cannot exist, which must fail loudly rather than
  // silently never fire.
  const auto topo = net::make_mesh2d(4, 4, true);
  const fault::LinkFault bad_links[] = {
      {15, 16, 0, 100, 0}, {16, 15, 0, 100, 2}, {-1, 0, 0, 100, 0}};
  for (const fault::LinkFault& bad : bad_links) {
    net::PacketSimConfig cfg = base_config();
    fault::FaultPlan fp;
    fp.link_faults.push_back(bad);
    cfg.faults = &fp;
    try {
      net::run_packet_sim(*topo, cfg);
      ADD_FAILURE() << "link (" << bad.u << ", " << bad.v << ") accepted";
    } catch (const util::check_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("(" + std::to_string(bad.u) + ", " +
                          std::to_string(bad.v) + ")"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(topo->name()), std::string::npos) << what;
    }
  }
  // The highest node id is still in range.
  net::PacketSimConfig cfg = base_config();
  fault::FaultPlan fp;
  fp.link_faults.push_back({15, 14, 0, 100, 0});
  cfg.faults = &fp;
  EXPECT_NO_THROW(net::run_packet_sim(*topo, cfg));
}

TEST(FaultPlan, PoolInvariantHoldsUnderFaults) {
  // A retried packet keeps its pool slot across attempts, so the
  // slots == peak-concurrency identity must survive fault churn.
  const auto topo = net::make_mesh2d(8, 8, true);
  net::PacketSimConfig cfg = base_config();
  const fault::FaultPlan fp = lossy_plan(cfg);
  cfg.faults = &fp;
  const auto r = net::run_packet_sim(*topo, cfg);
  EXPECT_EQ(r.pool_slots, r.peak_in_flight);
}

TEST(FaultPlan, UnitThresholdMatchesDoubleCompare) {
  // The integer threshold is the load-bearing trick of the batch verdict
  // kernel: (h >> 11) < unit_threshold(rate) must agree with the double
  // compare to_unit(h) < rate for EVERY hash — equality at the boundary is
  // exactly where a naive rounding would silently reclassify one packet and
  // break byte-identity with the scalar kernel.
  util::Xoshiro256StarStar rng(0x7157);
  const double rates[] = {0.0,   1.0,    0.5,   0.05,  0.02,  0.005,
                          1e-12, 0.9999, 0.375, 1e-300, 0x1.0p-53};
  for (const double rate : rates) {
    const std::uint64_t t = fault::unit_threshold(rate);
    // Boundary hashes around the threshold, plus a random sweep.
    std::vector<std::uint64_t> top53;
    if (t > 0) top53.insert(top53.end(), {t - 1, t});
    top53.insert(top53.end(), {0, 1, (std::uint64_t{1} << 53) - 1});
    for (int i = 0; i < 2000; ++i) top53.push_back(rng() >> 11);
    for (const std::uint64_t x : top53) {
      const bool integer_form = x < t;
      const bool double_form = static_cast<double>(x) * 0x1.0p-53 < rate;
      EXPECT_EQ(integer_form, double_form)
          << "rate=" << rate << " top53=" << x;
    }
  }
}

TEST(FaultPlan, VerdictMaskMatchesScalarPredicatesPerEvent) {
  // verdict_mask is specified bit-exact with the scalar predicates: a set
  // bit iff corrupt_attempt() for delivery events, drop_attempt() --
  // including the targeted first-attempt drop_packets overlay -- for link
  // traversals. Random event identities across several tiles (n > 256)
  // exercise the tile loop seams and both salts in one batch.
  fault::FaultPlan plan;
  plan.seed = 0xfeedbeef;
  plan.drop_rate = 0.3;
  plan.corrupt_rate = 0.2;
  plan.drop_packets = {3, 17, 900};
  util::Xoshiro256StarStar rng(0x9a5);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{63}, std::size_t{70}, std::size_t{256},
        std::size_t{700}}) {
    std::vector<std::uint32_t> inj(n);
    std::vector<std::uint16_t> attempt(n);
    std::vector<std::uint64_t> delivery((n + 63) / 64, 0);
    for (std::size_t i = 0; i < n; ++i) {
      inj[i] = static_cast<std::uint32_t>(rng.uniform(1000));
      attempt[i] = static_cast<std::uint16_t>(rng.uniform(4));
      if (rng.bernoulli(0.4))
        delivery[i / 64] |= std::uint64_t{1} << (i % 64);
    }
    fault::FaultPlan::VerdictScratch scratch;
    std::vector<std::uint64_t> mask(delivery.size(), ~std::uint64_t{0});
    plan.verdict_mask(delivery.data(), inj.data(), attempt.data(), n,
                      scratch, mask.data());
    for (std::size_t i = 0; i < n; ++i) {
      const bool del = (delivery[i / 64] >> (i % 64)) & 1;
      const bool want =
          del ? plan.corrupt_attempt(inj[i], attempt[i])
              : plan.drop_attempt(inj[i], attempt[i]);
      EXPECT_EQ(((mask[i / 64] >> (i % 64)) & 1) != 0, want)
          << "n=" << n << " i=" << i << " del=" << del;
    }
    // Bits at and past n are cleared, not leftover garbage.
    if (n % 64 != 0) {
      EXPECT_EQ(mask.back() >> (n % 64), 0u) << "n=" << n;
    }
  }
}

// ---- checkpoint store ----------------------------------------------------

std::string temp_dir(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("logp_ckpt_") + tag))
      .string();
}

TEST(Checkpoint, KvRoundTripIsExact) {
  exp::KvFields f;
  f.emplace_back("int", exp::kv_int(-9223372036854775807LL));
  f.emplace_back("pi", exp::kv_double(3.141592653589793));
  f.emplace_back("tiny", exp::kv_double(4.9406564584124654e-324));
  f.emplace_back("neg", exp::kv_double(-0.0));
  f.emplace_back("text", "with \"quotes\" and \\slashes\\ and\nnewline");
  const auto decoded = exp::kv_decode(exp::kv_encode(f));
  ASSERT_EQ(decoded.size(), f.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_EQ(decoded[i].first, f[i].first);
    EXPECT_EQ(decoded[i].second, f[i].second);
  }
  EXPECT_EQ(exp::kv_parse_int(exp::kv_get(decoded, "int")),
            -9223372036854775807LL);
  EXPECT_EQ(exp::kv_parse_double(exp::kv_get(decoded, "pi")),
            3.141592653589793);
  EXPECT_EQ(exp::kv_parse_double(exp::kv_get(decoded, "tiny")),
            4.9406564584124654e-324);
  EXPECT_THROW(exp::kv_get(decoded, "absent"), util::check_error);
  EXPECT_THROW(exp::kv_decode("not json"), util::check_error);
}

TEST(Checkpoint, StoreLoadsOnlyPublishedPoints) {
  const std::string dir = temp_dir("store");
  std::filesystem::remove_all(dir);
  exp::CheckpointStore store(dir, "runA");
  std::string payload;
  EXPECT_FALSE(store.load(0, &payload));
  store.store(0, "{\"x\":\"1\"}");
  store.store(7, "{\"x\":\"7\"}");
  ASSERT_TRUE(store.load(0, &payload));
  EXPECT_EQ(payload, "{\"x\":\"1\"}");
  ASSERT_TRUE(store.load(7, &payload));
  EXPECT_EQ(payload, "{\"x\":\"7\"}");
  EXPECT_FALSE(store.load(1, &payload));
  // Distinct run keys do not see each other's manifests.
  exp::CheckpointStore other(dir, "runB");
  EXPECT_FALSE(other.load(0, &payload));
  // clear() removes exactly this run's points.
  other.store(0, "{}");
  store.clear();
  EXPECT_FALSE(store.load(0, &payload));
  EXPECT_TRUE(other.load(0, &payload));
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, MapCheckpointedResumesByteIdentically) {
  const std::string dir = temp_dir("resume");
  std::filesystem::remove_all(dir);
  const exp::SweepRunner runner({1, 1});
  std::vector<std::function<std::int64_t()>> jobs;
  int computed = 0;
  for (std::int64_t i = 0; i < 10; ++i)
    jobs.push_back([i, &computed] {
      ++computed;
      return i * i + 1;
    });
  const std::function<std::string(const std::int64_t&)> enc =
      [](const std::int64_t& v) {
        return exp::kv_encode({{"v", exp::kv_int(v)}});
      };
  const std::function<std::int64_t(const std::string&)> dec =
      [](const std::string& s) {
        return exp::kv_parse_int(exp::kv_get(exp::kv_decode(s), "v"));
      };

  const auto plain = runner.map(jobs);
  EXPECT_EQ(computed, 10);

  // First pass publishes every point...
  computed = 0;
  exp::CheckpointStore store(dir, "sq");
  const auto first = exp::map_checkpointed<std::int64_t>(runner, jobs, &store,
                                                         enc, dec);
  EXPECT_EQ(computed, 10);
  EXPECT_EQ(first, plain);

  // ...a "crashed" rerun with some manifests deleted recomputes only those
  // and still returns the identical vector.
  std::filesystem::remove(store.path(3));
  std::filesystem::remove(store.path(8));
  computed = 0;
  const auto resumed = exp::map_checkpointed<std::int64_t>(runner, jobs,
                                                           &store, enc, dec);
  EXPECT_EQ(computed, 2);
  EXPECT_EQ(resumed, plain);

  // A fully-cached rerun computes nothing.
  computed = 0;
  const auto cached = exp::map_checkpointed<std::int64_t>(runner, jobs, &store,
                                                          enc, dec);
  EXPECT_EQ(computed, 0);
  EXPECT_EQ(cached, plain);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, DurablePublishOverwritesStaleTmpAndRoundTrips) {
  // store() now fsyncs the tmp file before the rename and the directory
  // after it. The observable contract is unchanged — a stale tmp left by a
  // crashed publish is overwritten, never read — and the published bytes
  // round-trip exactly.
  const std::string dir = temp_dir("durable");
  std::filesystem::remove_all(dir);
  exp::CheckpointStore store(dir, "d");
  {
    // Simulate a crash mid-publish: a torn tmp file and no manifest.
    std::ofstream f(store.path(2) + ".tmp", std::ios::binary | std::ios::trunc);
    f << "{\"v\":\"gar";
  }
  std::string payload;
  EXPECT_FALSE(store.load(2, &payload));  // tmp files are never read
  store.store(2, "{\"v\":\"42\"}");
  ASSERT_TRUE(store.load(2, &payload));
  EXPECT_EQ(payload, "{\"v\":\"42\"}");
  // The rename consumed the tmp: nothing stale left to confuse a resume.
  EXPECT_FALSE(std::filesystem::exists(store.path(2) + ".tmp"));
  EXPECT_EQ(store.corrupt_count(), 0);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, CorruptManifestIsSkippedAndRecomputed) {
  // A crash racing the tmp+rename publish (or plain disk rot) can leave a
  // truncated or garbled manifest. --resume must recompute that point with
  // a warning counter, not die on it.
  const std::string dir = temp_dir("corrupt");
  std::filesystem::remove_all(dir);
  const exp::SweepRunner runner({1, 1});
  std::vector<std::function<std::int64_t()>> jobs;
  int computed = 0;
  for (std::int64_t i = 0; i < 6; ++i)
    jobs.push_back([i, &computed] {
      ++computed;
      return i * 10;
    });
  const std::function<std::string(const std::int64_t&)> enc =
      [](const std::int64_t& v) {
        return exp::kv_encode({{"v", exp::kv_int(v)}});
      };
  const std::function<std::int64_t(const std::string&)> dec =
      [](const std::string& s) {
        return exp::kv_parse_int(exp::kv_get(exp::kv_decode(s), "v"));
      };

  exp::CheckpointStore store(dir, "c");
  const auto first = exp::map_checkpointed<std::int64_t>(runner, jobs, &store,
                                                         enc, dec);
  EXPECT_EQ(computed, 6);
  EXPECT_EQ(store.corrupt_count(), 0);

  // Truncate one manifest mid-line, garble another, empty a third.
  {
    std::ofstream f(store.path(1), std::ios::binary | std::ios::trunc);
    f << "{\"v\":\"1";  // torn write: unterminated string
  }
  {
    std::ofstream f(store.path(3), std::ios::binary | std::ios::trunc);
    f << "{\"w\":\"30\"}";  // decodes but lacks the field: decode throws
  }
  {
    std::ofstream f(store.path(4), std::ios::binary | std::ios::trunc);
  }
  computed = 0;
  const auto resumed = exp::map_checkpointed<std::int64_t>(runner, jobs,
                                                           &store, enc, dec);
  EXPECT_EQ(resumed, first);
  EXPECT_EQ(computed, 3);  // exactly the damaged points
  EXPECT_EQ(store.corrupt_count(), 3);

  // The recompute republished them: a further resume is fully cached.
  computed = 0;
  (void)exp::map_checkpointed<std::int64_t>(runner, jobs, &store, enc, dec);
  EXPECT_EQ(computed, 0);
  EXPECT_EQ(store.corrupt_count(), 3);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, OnFreshCountsOnlyComputedPoints) {
  const std::string dir = temp_dir("fresh");
  std::filesystem::remove_all(dir);
  const exp::SweepRunner runner({1, 1});
  std::vector<std::function<std::int64_t()>> jobs;
  for (std::int64_t i = 0; i < 5; ++i) jobs.push_back([i] { return i; });
  const std::function<std::string(const std::int64_t&)> enc =
      [](const std::int64_t& v) {
        return exp::kv_encode({{"v", exp::kv_int(v)}});
      };
  const std::function<std::int64_t(const std::string&)> dec =
      [](const std::string& s) {
        return exp::kv_parse_int(exp::kv_get(exp::kv_decode(s), "v"));
      };
  exp::CheckpointStore store(dir, "n");
  std::vector<int> seen;
  (void)exp::map_checkpointed<std::int64_t>(
      runner, jobs, &store, enc, dec, [&seen](int n) { seen.push_back(n); });
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 4, 5}));
  // Resume with everything cached: the hook never fires.
  seen.clear();
  (void)exp::map_checkpointed<std::int64_t>(
      runner, jobs, &store, enc, dec, [&seen](int n) { seen.push_back(n); });
  EXPECT_TRUE(seen.empty());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace logp

// Model checker (src/mc): replay fidelity, exploration soundness, and the
// seeded-bug acceptance test.
//
// Contracts pinned here:
//  * Zero perturbation: a RecordingOracle with an empty prefix reproduces
//    the oracle-free run byte-for-byte (deliveries, protocol stats, finish
//    time, profiler buckets, Chrome trace JSON). Alternative 0 at every
//    choice point IS the machine default — the property that makes every
//    counterexample a faithful simulation.
//  * Replay determinism: any interleaving the explorer visits, re-run from
//    its choice string, is byte-identical — a counterexample is a one-line
//    reproduction, not a statistical report.
//  * Exhaustive exploration is deterministic and shard-invariant: the same
//    tree, counted the same, whether explored serially, in-process sharded,
//    or shard-by-shard.
//  * All five protocol invariants hold on every interleaving of the
//    catalogue scenarios at small P.
//  * Mutation test (the acceptance bar): seeding the dedup bug
//    (test_skip_dedup) makes the explorer produce a violating interleaving
//    whose replay exhibits the duplicate delivery.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mc/explorer.hpp"
#include "mc/invariants.hpp"
#include "mc/oracle.hpp"
#include "mc/scenarios.hpp"

namespace logp {
namespace {

using mc::ExplorerOptions;
using mc::ExplorerResult;
using mc::RecordingOracle;
using mc::RunOutcome;
using mc::ScenarioConfig;

void expect_identical(const RunOutcome& a, const RunOutcome& b) {
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.finish, b.finish);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.rel.data_sends, b.rel.data_sends);
  EXPECT_EQ(a.rel.retransmits, b.rel.retransmits);
  EXPECT_EQ(a.rel.acks_sent, b.rel.acks_sent);
  EXPECT_EQ(a.rel.acks_received, b.rel.acks_received);
  EXPECT_EQ(a.rel.duplicates, b.rel.duplicates);
  EXPECT_EQ(a.rel.delivered, b.rel.delivered);
  EXPECT_EQ(a.rel.dead_peers, b.rel.dead_peers);
  ASSERT_EQ(a.sends.size(), b.sends.size());
  for (std::size_t i = 0; i < a.sends.size(); ++i) {
    EXPECT_EQ(a.sends[i].outcome.delivered, b.sends[i].outcome.delivered);
    EXPECT_EQ(a.sends[i].outcome.dead_peer, b.sends[i].outcome.dead_peer);
    EXPECT_EQ(a.sends[i].outcome.retransmits, b.sends[i].outcome.retransmits);
  }
  EXPECT_EQ(a.profile, b.profile);
  EXPECT_EQ(a.trace_json, b.trace_json);  // byte-identical, not just equal
  EXPECT_EQ(a.critpath_json, b.critpath_json);
}

TEST(McOracle, EmptyPrefixReproducesOracleFreeRunByteForByte) {
  for (const char* name : {"send_ack", "retransmit_race"}) {
    ScenarioConfig cfg = mc::scenario_defaults(name, 3);
    cfg.latency_min = 0;  // randomized latency: the RNG stream must not shift
    const RunOutcome plain = mc::run_scenario(cfg, nullptr, true);
    RecordingOracle oracle({}, cfg.drop_budget);
    const RunOutcome hooked = mc::run_scenario(cfg, &oracle, true);
    SCOPED_TRACE(name);
    expect_identical(plain, hooked);
    // The default path takes alternative 0 everywhere.
    for (const int c : oracle.taken()) EXPECT_EQ(c, 0);
    EXPECT_GT(oracle.record().size(), 0u);
  }
}

TEST(McOracle, ExploredInterleavingsReplayByteIdentically) {
  ScenarioConfig cfg = mc::scenario_defaults("send_ack", 3);
  cfg.latency_min = 0;

  // Walk a few non-default branches: expand the root run, then re-run each
  // child prefix twice and compare everything, trace bytes included.
  RecordingOracle root({}, cfg.drop_budget);
  mc::run_scenario(cfg, &root);
  const std::vector<int> taken = root.taken();
  const auto& rec = root.record();
  int tested = 0;
  for (std::size_t j = 0; j < rec.size() && tested < 6; ++j) {
    if (rec[j].alts.empty()) continue;
    std::vector<int> prefix(taken.begin(),
                            taken.begin() + static_cast<std::ptrdiff_t>(j));
    prefix.push_back(rec[j].alts.front());
    RecordingOracle o1(prefix, cfg.drop_budget);
    const RunOutcome r1 = mc::run_scenario(cfg, &o1, true);
    RecordingOracle o2(prefix, cfg.drop_budget);
    const RunOutcome r2 = mc::run_scenario(cfg, &o2, true);
    SCOPED_TRACE(mc::format_choices(prefix));
    expect_identical(r1, r2);
    EXPECT_EQ(o1.taken(), o2.taken());
    // The forced branch really was taken.
    EXPECT_EQ(o1.taken()[j], rec[j].alts.front());
    ++tested;
  }
  EXPECT_GE(tested, 3);
}

TEST(McExplorer, ExhaustiveCountsAreDeterministicAndShardInvariant) {
  ScenarioConfig cfg = mc::scenario_defaults("send_ack", 3);
  cfg.latency_min = 0;

  ExplorerOptions serial;
  const ExplorerResult a = mc::explore(cfg, serial);
  const ExplorerResult b = mc::explore(cfg, serial);
  EXPECT_GT(a.runs, 50);
  EXPECT_FALSE(a.capped);
  EXPECT_TRUE(a.violations.empty());
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.choice_points, b.choice_points);
  EXPECT_EQ(a.pruned, b.pruned);
  EXPECT_EQ(a.max_depth, b.max_depth);

  // In-process sharded exploration visits the identical tree.
  ExplorerOptions sharded;
  sharded.shards = 3;
  sharded.threads = 3;
  const ExplorerResult c = mc::explore(cfg, sharded);
  EXPECT_EQ(a.runs, c.runs);
  EXPECT_EQ(a.choice_points, c.choice_points);
  EXPECT_EQ(a.pruned, c.pruned);
  EXPECT_EQ(a.max_depth, c.max_depth);

  // Shard-by-shard (the CI matrix mode) partitions it exactly.
  std::int64_t runs = 0, cps = 0;
  for (int s = 0; s < 3; ++s) {
    ExplorerOptions one;
    one.shards = 3;
    one.shard = s;
    const ExplorerResult r = mc::explore(cfg, one);
    EXPECT_TRUE(r.violations.empty());
    runs += r.runs;
    cps += r.choice_points;
  }
  EXPECT_EQ(a.runs, runs);
  EXPECT_EQ(a.choice_points, cps);
}

TEST(McExplorer, BranchCapStopsEarlyAndReportsCapped) {
  ScenarioConfig cfg = mc::scenario_defaults("retransmit_race", 3);
  cfg.latency_min = 0;
  ExplorerOptions opts;
  opts.max_branches = 50;
  const ExplorerResult r = mc::explore(cfg, opts);
  EXPECT_TRUE(r.capped);
  EXPECT_LE(r.runs, 50);
  EXPECT_TRUE(r.violations.empty());
}

TEST(McExplorer, InvariantsHoldAcrossTheCatalogue) {
  // Exhaustive sweeps of every scenario at small P, including dead-peer
  // and degraded-path coverage. Each must come back violation-free.
  struct Case {
    const char* name;
    int P;
    std::vector<ProcId> dead;
    Cycles latency_min;
  };
  const std::vector<Case> cases = {
      {"send_ack", 2, {}, 0},
      {"send_ack", 3, {2}, -1},  // dead receiver: dead-peer verdicts
      {"retransmit_race", 3, {}, -1},
      {"reliable_broadcast", 3, {}, -1},
      {"resilient_broadcast", 4, {}, 0},
      {"resilient_broadcast", 4, {1}, 0},
      {"resilient_reduce", 4, {0, 2}, 0},
  };
  for (const Case& c : cases) {
    ScenarioConfig cfg = mc::scenario_defaults(c.name, c.P);
    cfg.dead_procs = c.dead;
    cfg.latency_min = c.latency_min;
    const ExplorerResult r = mc::explore(cfg, ExplorerOptions{});
    SCOPED_TRACE(std::string(c.name) + " P=" + std::to_string(c.P));
    EXPECT_FALSE(r.capped);
    EXPECT_GE(r.runs, 1);
    for (const mc::Violation& v : r.violations)
      ADD_FAILURE() << "violation at [" << mc::format_choices(v.choices)
                    << "]: " << v.failures.front();
  }
}

TEST(McExplorer, SeededDedupBugIsCaughtWithReplayableCounterexample) {
  // The acceptance bar: disable the reliable layer's (src, seq) dedup and
  // the checker must find a duplicate delivery — and its counterexample
  // must reproduce on replay, down to the trace bytes.
  ScenarioConfig cfg = mc::scenario_defaults("send_ack", 2);
  cfg.mutate_no_dedup = true;
  const ExplorerResult r = mc::explore(cfg, ExplorerOptions{});
  ASSERT_FALSE(r.violations.empty());
  const mc::Violation& v = r.violations.front();
  bool duplicate = false;
  for (const std::string& f : v.failures)
    duplicate = duplicate || f.find("duplicate delivery") != std::string::npos;
  EXPECT_TRUE(duplicate) << v.failures.front();

  RecordingOracle o1(v.choices, cfg.drop_budget);
  const RunOutcome r1 = mc::run_scenario(cfg, &o1, true);
  EXPECT_FALSE(mc::check_invariants(cfg, r1).empty());
  RecordingOracle o2(v.choices, cfg.drop_budget);
  const RunOutcome r2 = mc::run_scenario(cfg, &o2, true);
  expect_identical(r1, r2);
  EXPECT_FALSE(r1.trace_json.empty());

  // And the unmutated protocol passes the same exploration.
  cfg.mutate_no_dedup = false;
  EXPECT_TRUE(mc::explore(cfg, ExplorerOptions{}).violations.empty());
}

TEST(McExplorer, DropBudgetBoundsAdversarialLosses) {
  ScenarioConfig cfg = mc::scenario_defaults("send_ack", 2);
  cfg.drop_budget = 2;
  cfg.max_retries = 3;
  const ExplorerResult r = mc::explore(cfg, ExplorerOptions{});
  EXPECT_TRUE(r.violations.empty());
  // More budget, more tree: against budget 1 the run count must grow.
  ScenarioConfig tight = cfg;
  tight.drop_budget = 1;
  EXPECT_GT(r.runs, mc::explore(tight, ExplorerOptions{}).runs);
}

TEST(McScenario, ConfigValidationRejectsUnsoundKnobs) {
  ScenarioConfig cfg = mc::scenario_defaults("send_ack", 3);
  cfg.drop_budget = cfg.max_retries + 1;  // delivery no longer guaranteed
  EXPECT_THROW(mc::run_scenario(cfg, nullptr), std::exception);
  ScenarioConfig res = mc::scenario_defaults("resilient_broadcast", 3);
  res.drop_budget = 1;  // droppable plain sends would deadlock the tree
  EXPECT_THROW(mc::run_scenario(res, nullptr), std::exception);
  ScenarioConfig unknown;
  unknown.scenario = "no_such_scenario";
  EXPECT_THROW(mc::run_scenario(unknown, nullptr), std::exception);
}

}  // namespace
}  // namespace logp

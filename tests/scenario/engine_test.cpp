#include "scenario/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/runner.hpp"
#include "net/topology.hpp"
#include "obs/audit.hpp"

namespace ldke::scenario {
namespace {

/// Small but fully dynamic: mobility + churn + duty + a scripted wall,
/// then a recluster and a recovery window.
ScenarioSpec small_spec() {
  ScenarioSpec spec;
  spec.name = "engine_test";
  spec.nodes = 250;
  spec.density = 10.0;
  spec.side_m = 600.0;
  spec.motion.model = MotionModel::kRandomWaypoint;
  spec.motion.epoch_s = 0.25;
  spec.motion.speed_min_mps = 2.0;
  spec.motion.speed_max_mps = 10.0;
  spec.motion.pause_s = 0.5;
  spec.churn = {2.0, 1.0, 2.0};
  spec.duty = {0.5, 0.7};
  spec.data.refresh_interval_s = 0.4;
  PhaseSpec calm;
  calm.name = "calm";
  calm.duration_s = 1.0;
  PhaseSpec storm;
  storm.name = "storm";
  storm.duration_s = 1.5;
  storm.mobility = true;
  storm.churn = true;
  storm.duty = true;
  storm.recluster_after = true;
  storm.events.push_back({ScriptedEvent::Kind::kPartition, 0.5, 300.0});
  storm.events.push_back({ScriptedEvent::Kind::kHeal, 1.0, 0.0});
  PhaseSpec recovered;
  recovered.name = "recovered";
  recovered.duration_s = 1.0;
  spec.phases = {calm, storm, recovered};
  return spec;
}

ScenarioStats run_once(const ScenarioSpec& spec, std::uint64_t seed,
                       std::size_t lanes = 1) {
  core::RunnerConfig config = ScenarioEngine::make_runner_config(spec, seed);
  config.kernel.lanes = lanes;
  core::ProtocolRunner runner{config};
  ScenarioEngine engine{runner, spec};
  return engine.run();
}

TEST(ScenarioEngine, SameSeedIsBitIdentical) {
  const ScenarioSpec spec = small_spec();
  const ScenarioStats a = run_once(spec, 7);
  const ScenarioStats b = run_once(spec, 7);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  const ScenarioStats c = run_once(spec, 8);
  EXPECT_NE(a.to_json().dump(), c.to_json().dump());
}

TEST(ScenarioEngine, ExplicitLaneOneMatchesDefault) {
  const ScenarioSpec spec = small_spec();
  const ScenarioStats a = run_once(spec, 7);
  const ScenarioStats b = run_once(spec, 7, /*lanes=*/1);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
}

TEST(ScenarioEngine, DynamicsActuallyBite) {
  const ScenarioSpec spec = small_spec();
  const ScenarioStats stats = run_once(spec, 7);
  ASSERT_EQ(stats.phases.size(), 3u);
  const PhaseStats& calm = stats.phases[0];
  const PhaseStats& storm = stats.phases[1];
  const PhaseStats& recovered = stats.phases[2];

  // The calm phase is a healthy static network. The ratio sits well
  // below 1.0 even here: at refresh_interval_s = 0.4 every hash-refresh
  // round re-keys the deployment instantly, so readings in flight under
  // the old epoch fail authentication and drop (envelope.auth_fail).
  EXPECT_EQ(calm.leaves + calm.fails + calm.joins, 0u);
  EXPECT_GT(calm.delivered, 0u);
  EXPECT_GT(calm.delivery_ratio(), 0.3);

  // The storm runs every dynamic at once...
  EXPECT_GT(storm.motion_epochs, 0u);
  EXPECT_GT(storm.leaves + storm.fails, 0u);
  EXPECT_GT(storm.joins, 0u);
  EXPECT_GT(storm.sleeps, 0u);
  EXPECT_EQ(storm.partitions, 1u);
  EXPECT_EQ(storm.heals, 1u);
  EXPECT_EQ(storm.reclustered, 1u);
  // ... and the radio gates see it: sleeping/departed sources are
  // suppressed before they transmit (attempts without originations),
  // in-flight frames to sleepers/leavers drop, the wall blocks traffic.
  EXPECT_GT(storm.attempts, storm.originated);
  EXPECT_GT(storm.dropped_gone, 0u);
  EXPECT_GT(storm.dropped_partition, 0u);
  EXPECT_LT(storm.delivery_ratio(), calm.delivery_ratio());

  // Recovery: recluster + routing rebuild restores a working tree.
  EXPECT_GT(recovered.delivered, 0u);
  EXPECT_EQ(stats.reclusters, 1u);
}

TEST(ScenarioEngine, DutyCyclersCatchUpOnHashRefresh) {
  // Duty cycling only — every node must end at the global hash epoch
  // even though sleepers miss refresh rounds while their radio is off.
  ScenarioSpec spec;
  spec.name = "duty_only";
  spec.nodes = 150;
  spec.density = 10.0;
  spec.side_m = 500.0;
  spec.duty = {0.5, 0.5};
  spec.data.refresh_interval_s = 0.2;
  PhaseSpec phase;
  phase.name = "dozing";
  phase.duration_s = 2.0;
  phase.duty = true;
  spec.phases = {phase};

  core::RunnerConfig config = ScenarioEngine::make_runner_config(spec, 11);
  core::ProtocolRunner runner{config};
  ScenarioEngine engine{runner, spec};
  const ScenarioStats stats = engine.run();

  const PhaseStats& ps = stats.phases[0];
  EXPECT_GT(ps.refresh_rounds, 0u);
  EXPECT_GT(ps.sleeps, 0u);
  EXPECT_GT(ps.catch_up_epochs, 0u);  // wakers replayed missed rounds
  EXPECT_EQ(ps.hash_epoch_lag_end, 0.0);
  const auto global = static_cast<std::uint32_t>(ps.refresh_rounds);
  for (const auto& node : runner.nodes()) {
    EXPECT_EQ(node->hash_epoch(), global) << "node " << node->id();
  }
}

TEST(ScenarioEngine, EmitsAuditStreamAndPerPhaseHealth) {
  ScenarioSpec spec = small_spec();
  spec.data.evict_interval_s = 0.9;  // one eviction inside the storm
  core::RunnerConfig config = ScenarioEngine::make_runner_config(spec, 7);
  core::ProtocolRunner runner{config};
  obs::AuditSink audit;
  runner.network().set_audit_sink(&audit);
  ScenarioEngine engine{runner, spec};
  const ScenarioStats stats = engine.run();
  ASSERT_EQ(stats.phases.size(), 3u);
  const PhaseStats& storm = stats.phases[1];

  // Every scenario dynamic left its typed record, with counts matching
  // the phase stats tallied independently by the engine.
  const auto counts = audit.counts_by_kind();
  const auto count_of = [&](obs::AuditKind kind) {
    return counts[static_cast<std::size_t>(kind)];
  };
  EXPECT_GT(count_of(obs::AuditKind::kKeyEstablished), 0u);
  EXPECT_GT(count_of(obs::AuditKind::kMemberJoined), 0u);
  EXPECT_GT(count_of(obs::AuditKind::kRefreshRound), 0u);
  EXPECT_GT(count_of(obs::AuditKind::kRefreshApplied), 0u);
  EXPECT_GT(count_of(obs::AuditKind::kEvictionIssued), 0u);
  std::uint64_t leaves = 0, fails = 0, sleeps = 0, partitions = 0, heals = 0,
                joins = 0;
  for (const PhaseStats& ps : stats.phases) {
    leaves += ps.leaves;
    fails += ps.fails;
    sleeps += ps.sleeps;
    partitions += ps.partitions;
    heals += ps.heals;
    joins += ps.joins;
  }
  EXPECT_EQ(count_of(obs::AuditKind::kNodeLeft), leaves);
  EXPECT_EQ(count_of(obs::AuditKind::kNodeFailed), fails);
  EXPECT_EQ(count_of(obs::AuditKind::kSleep), sleeps);
  EXPECT_EQ(count_of(obs::AuditKind::kPartition), partitions);
  EXPECT_EQ(count_of(obs::AuditKind::kHeal), heals);
  EXPECT_EQ(count_of(obs::AuditKind::kJoinStarted), joins);
  EXPECT_GT(storm.sleeps, 0u);  // the comparisons above had teeth

  // One health sample per phase, in phase order, internally consistent.
  const auto& health = engine.health();
  ASSERT_EQ(health.size(), stats.phases.size());
  for (std::size_t i = 0; i < health.size(); ++i) {
    const obs::HealthSample& h = health[i];
    EXPECT_EQ(h.phase, stats.phases[i].name);
    EXPECT_GT(h.active_nodes, 0u);
    EXPECT_LE(h.secured_links, h.live_links);
    EXPECT_GE(h.secured_link_fraction, 0.0);
    EXPECT_LE(h.secured_link_fraction, 1.0);
    EXPECT_GE(h.key_components, 1u);
    EXPECT_LE(h.largest_component, h.active_nodes);
    EXPECT_EQ(h.delivered, stats.phases[i].delivered);
  }
  // The healthy static phase is near-fully secured, with one dominant
  // key-graph component (a handful of edge/singleton clusters may sit
  // outside it).
  EXPECT_GT(health[0].secured_link_fraction, 0.9);
  EXPECT_LT(health[0].key_components, health[0].active_nodes / 10);
  EXPECT_GT(health[0].largest_component, health[0].active_nodes / 2);
}

/// Invariant (a): on every live link between active nodes, two nodes
/// holding the same cluster id sit at the same §IV-C hash epoch exactly
/// when they hold byte-equal keys for it.  This is why a secured link
/// (core::probe_health's byte comparison) can be read as "shares a
/// cluster at the current epoch": every stored key for cluster c is
/// F^epoch(K0_c).  A §IV-E join committing pre-recluster candidate keys
/// under a recurring cid breaks it.  Returns the (link, shared cid)
/// pairs that held equal keys, so callers can check the walk had teeth.
std::size_t expect_epoch_agreement_iff_equal_keys(
    const core::ProtocolRunner& runner, std::uint64_t seed) {
  const net::Network& net = runner.network();
  std::size_t equal_pairs = 0;
  for (net::NodeId u = 0; u < runner.node_count(); ++u) {
    if (!net.is_active(u)) continue;
    const core::SensorNode& nu = runner.node(u);
    for (const net::NodeId v : net.topology().neighbors(u)) {
      if (v <= u || !net.is_active(v)) continue;
      const core::SensorNode& nv = runner.node(v);
      for (const auto& [cid, key] : nu.keys().all()) {
        const auto other = nv.keys().key_for(cid);
        if (!other) continue;
        const bool same_epoch = nu.hash_epoch() == nv.hash_epoch();
        const bool same_key = *other == key;
        EXPECT_EQ(same_epoch, same_key)
            << "seed " << seed << " link " << u << "-" << v << " cid " << cid
            << " epochs " << nu.hash_epoch() << "/" << nv.hash_epoch();
        if (same_key) ++equal_pairs;
      }
    }
  }
  return equal_pairs;
}

/// Invariant (b): the topology the engine patched epoch by epoch
/// (Topology::apply_displacements, plus §IV-E deployments) is
/// element-identical to a bulk rebuild from its final positions.
void expect_topology_matches_rebuild(const net::Topology& live,
                                     std::uint64_t seed) {
  const std::span<const net::Vec2> positions = live.positions();
  const net::Topology rebuilt = net::Topology::from_positions(
      {positions.begin(), positions.end()}, live.range());
  ASSERT_EQ(rebuilt.size(), live.size()) << "seed " << seed;
  for (net::NodeId id = 0; id < live.size(); ++id) {
    const auto got = live.neighbors(id);
    const auto want = rebuilt.neighbors(id);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "seed " << seed << " node " << id;
  }
}

/// Runs \p spec and checks both invariants on the final state.
ScenarioStats run_checking_invariants(const ScenarioSpec& spec,
                                      std::uint64_t seed) {
  core::RunnerConfig config = ScenarioEngine::make_runner_config(spec, seed);
  core::ProtocolRunner runner{config};
  ScenarioEngine engine{runner, spec};
  const ScenarioStats stats = engine.run();
  EXPECT_GT(expect_epoch_agreement_iff_equal_keys(runner, seed), 0u)
      << "seed " << seed;
  expect_topology_matches_rebuild(runner.network().topology(), seed);
  return stats;
}

TEST(ScenarioEngine, PatchedTopologyMatchesRebuildFromFinalPositions) {
  const ScenarioSpec spec = small_spec();
  for (const std::uint64_t seed : {1u, 3u, 7u}) {
    const ScenarioStats stats = run_checking_invariants(spec, seed);
    EXPECT_GT(stats.phases[1].motion_epochs, 0u) << "seed " << seed;
    EXPECT_GT(stats.joins, 0u) << "seed " << seed;
  }
}

TEST(ScenarioEngine, KeyEpochsAgreeWithKeyBytesThroughChurnAndEvictions) {
  // The hard cases stacked: mobility, churn, duty sleepers, a partition
  // wave, an eviction wave inside the storm, and a mid-run recluster.
  ScenarioSpec spec = small_spec();
  spec.data.evict_interval_s = 0.9;
  for (const std::uint64_t seed : {1u, 3u, 7u}) {
    const ScenarioStats stats = run_checking_invariants(spec, seed);
    ASSERT_EQ(stats.phases.size(), 3u);
    EXPECT_GT(stats.phases[1].leaves + stats.phases[1].fails, 0u)
        << "seed " << seed;
    EXPECT_EQ(stats.reclusters, 1u) << "seed " << seed;
  }
}

TEST(ScenarioEngine, KeyEpochsAgreeWithKeyBytesWhenJoinsStraddleRecluster) {
  // Regression: a §IV-E join window that straddles a §IV-C recluster
  // used to commit pre-rotation candidate keys — a permanently
  // unauthenticatable "member" holding a recurring cid at the current
  // epoch under dead key bytes.  The recluster now voids in-flight join
  // buffers, defers §IV-E replies while a round is active, and resets
  // the reply guard at the swap so the retry lands in the new epoch.  A
  // join rate this high against a 0.25 s join window guarantees
  // straddles.
  ScenarioSpec spec = small_spec();
  spec.churn = {1.0, 0.5, 12.0};
  spec.phases[1].duty = false;
  spec.phases[1].events.clear();
  for (const std::uint64_t seed : {1u, 3u, 7u}) {
    const ScenarioStats stats = run_checking_invariants(spec, seed);
    EXPECT_GT(stats.joins, 0u) << "seed " << seed;
    EXPECT_EQ(stats.reclusters, 1u) << "seed " << seed;
  }
}

TEST(ScenarioEngine, RefusesShardedKernels) {
  ScenarioSpec spec = small_spec();
  core::RunnerConfig config = ScenarioEngine::make_runner_config(spec, 3);
  config.kernel.lanes = 4;
  config.channel.loss_probability = 0.0;
  core::ProtocolRunner runner{config};
  if (runner.sim().kernel() == nullptr) {
    GTEST_SKIP() << "kernel clamped to serial on this configuration";
  }
  // Fails at construction — before setup burns any work.
  EXPECT_THROW((ScenarioEngine{runner, spec}), std::invalid_argument);
}

TEST(ScenarioEngine, RejectsMismatchedRunnerConfig) {
  const ScenarioSpec spec = small_spec();
  core::RunnerConfig config = ScenarioEngine::make_runner_config(spec, 3);
  config.node_count = 99;  // diverges from the spec
  core::ProtocolRunner runner{config};
  EXPECT_THROW((ScenarioEngine{runner, spec}), std::invalid_argument);
}

}  // namespace
}  // namespace ldke::scenario

#include "core/health_probe.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/runner.hpp"
#include "test_helpers.hpp"

namespace ldke::core {
namespace {

/// The probe's structural gauges recomputed the slow way: every node
/// pair checked for range by distance, every shared cluster id's key
/// bytes compared, and components found by breadth-first search.
obs::HealthSample brute_force_health(const ProtocolRunner& runner) {
  const net::Network& net = runner.network();
  const net::Topology& topo = net.topology();
  const std::size_t n = runner.node_count();
  const double range2 = topo.range() * topo.range();

  obs::HealthSample s;
  std::vector<std::vector<net::NodeId>> secured(n);
  for (net::NodeId u = 0; u < n; ++u) {
    if (!net.is_active(u)) continue;
    for (net::NodeId v = u + 1; v < n; ++v) {
      if (!net.is_active(v)) continue;
      if (net::distance_squared(topo.position(u), topo.position(v)) > range2) {
        continue;
      }
      ++s.live_links;
      bool shared = false;
      for (const auto& [cid, key] : runner.node(u).keys().all()) {
        const auto other = runner.node(v).keys().key_for(cid);
        shared = shared || (other && *other == key);
      }
      if (shared) {
        ++s.secured_links;
        secured[u].push_back(v);
        secured[v].push_back(u);
      }
    }
  }
  s.secured_link_fraction =
      s.live_links == 0 ? 0.0
                        : static_cast<double>(s.secured_links) / s.live_links;

  std::vector<bool> seen(n, false);
  for (net::NodeId root = 0; root < n; ++root) {
    if (!net.is_active(root) || seen[root]) continue;
    ++s.key_components;
    std::uint32_t size = 0;
    std::deque<net::NodeId> queue{root};
    seen[root] = true;
    while (!queue.empty()) {
      const net::NodeId u = queue.front();
      queue.pop_front();
      ++size;
      for (const net::NodeId v : secured[u]) {
        if (!seen[v]) {
          seen[v] = true;
          queue.push_back(v);
        }
      }
    }
    s.largest_component = std::max(s.largest_component, size);
  }

  std::vector<std::uint64_t> epochs;
  for (net::NodeId u = 0; u < n; ++u) {
    if (!net.is_active(u)) continue;
    ++s.active_nodes;
    if (runner.node(u).keys().has_own()) {
      epochs.push_back(runner.node(u).hash_epoch());
    }
  }
  if (!epochs.empty()) {
    const auto [lo, hi] = std::minmax_element(epochs.begin(), epochs.end());
    s.epoch_skew = *hi - *lo;
    std::uint64_t sum = 0;
    for (const std::uint64_t e : epochs) sum += e;
    s.epoch_mean = static_cast<double>(sum) / static_cast<double>(epochs.size());
  }
  return s;
}

TEST(ProbeHealth, StructuralGaugesMatchBruteForceSearch) {
  auto runner = testing::after_key_setup(testing::small_config(5, 120, 10.0));
  const obs::HealthSample fresh = probe_health(*runner, "fresh", 0, 0, 0);
  // A freshly keyed deployment: every node keyed at epoch 0, and border
  // nodes hold their neighbouring clusters' keys too.
  EXPECT_EQ(fresh.epoch_skew, 0u);
  EXPECT_GT(fresh.secured_links, 0u);

  // One node leaves; one node applies a hash refresh its neighbours do
  // not, which breaks its links byte-wise while the cids still match
  // and cuts it off into a component of its own.
  runner->network().mark_gone(17);
  runner->node(42).apply_hash_refresh();

  const obs::HealthSample got = probe_health(*runner, "after", 9, 0, 9);
  const obs::HealthSample want = brute_force_health(*runner);
  EXPECT_EQ(got.phase, "after");
  EXPECT_EQ(got.t_ns, 9);
  EXPECT_EQ(got.active_nodes, want.active_nodes);
  EXPECT_EQ(got.active_nodes, fresh.active_nodes - 1);
  EXPECT_EQ(got.live_links, want.live_links);
  EXPECT_EQ(got.secured_links, want.secured_links);
  EXPECT_LT(got.secured_links, fresh.secured_links);
  EXPECT_DOUBLE_EQ(got.secured_link_fraction, want.secured_link_fraction);
  EXPECT_EQ(got.key_components, want.key_components);
  EXPECT_GT(got.key_components, 1u);
  EXPECT_EQ(got.largest_component, want.largest_component);
  EXPECT_EQ(got.epoch_skew, want.epoch_skew);
  EXPECT_EQ(got.epoch_skew, 1u);
  EXPECT_DOUBLE_EQ(got.epoch_mean, want.epoch_mean);
  EXPECT_GT(got.epoch_mean, 0.0);
}

}  // namespace
}  // namespace ldke::core

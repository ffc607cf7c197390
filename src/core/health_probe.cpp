#include "core/health_probe.hpp"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "core/runner.hpp"

namespace ldke::core {

namespace {

/// Plain union-find over node indices; path-halving find.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), net::NodeId{0});
  }

  net::NodeId find(net::NodeId x) noexcept {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(net::NodeId a, net::NodeId b) noexcept {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<net::NodeId> parent_;
};

/// A link is *secured* when both endpoints hold the same key for the
/// same cluster — after an epoch-skewed refresh the cids still match but
/// the key bytes do not, and the link correctly counts as broken.
bool shares_cluster_key(const SensorNode& a, const SensorNode& b) {
  for (const auto& [cid, key] : a.keys().all()) {
    const auto other = b.keys().key_for(cid);
    if (other && *other == key) return true;
  }
  return false;
}

}  // namespace

obs::HealthSample probe_health(const ProtocolRunner& runner,
                               std::string phase, std::int64_t t_ns,
                               std::int64_t window_from_ns,
                               std::int64_t window_until_ns) {
  const net::Network& net = runner.network();
  const net::Topology& topo = net.topology();
  const std::size_t n = runner.node_count();

  obs::HealthSample sample;
  sample.t_ns = t_ns;
  sample.phase = std::move(phase);

  UnionFind uf{n};
  std::uint64_t epoch_min = 0, epoch_max = 0, epoch_sum = 0;
  std::uint32_t keyed = 0;
  for (net::NodeId u = 0; u < n; ++u) {
    if (!net.is_active(u)) continue;
    ++sample.active_nodes;
    const SensorNode& nu = runner.node(u);
    if (nu.keys().has_own()) {
      const std::uint64_t epoch = nu.hash_epoch();
      if (keyed == 0) epoch_min = epoch_max = epoch;
      epoch_min = std::min(epoch_min, epoch);
      epoch_max = std::max(epoch_max, epoch);
      epoch_sum += epoch;
      ++keyed;
    }
    for (const net::NodeId v : topo.neighbors(u)) {
      if (v <= u || !net.is_active(v)) continue;  // count each pair once
      ++sample.live_links;
      if (shares_cluster_key(nu, runner.node(v))) {
        ++sample.secured_links;
        uf.unite(u, v);
      }
    }
  }
  sample.secured_link_fraction =
      sample.live_links == 0
          ? 0.0
          : static_cast<double>(sample.secured_links) / sample.live_links;

  // Key-graph connectivity: components among active nodes under the
  // secured-link relation.  1 component == any active node can reach any
  // other over hops whose envelopes both ends can open.
  std::vector<std::uint32_t> root_size(n, 0);
  for (net::NodeId u = 0; u < n; ++u) {
    if (!net.is_active(u)) continue;
    const std::uint32_t size = ++root_size[uf.find(u)];
    if (size == 1) ++sample.key_components;
    sample.largest_component = std::max(sample.largest_component, size);
  }

  const auto window =
      runner.deliveries().window_stats(window_from_ns, window_until_ns);
  sample.delivered = window.delivered;
  sample.latency_p50_ms = window.p50_s * 1e3;
  sample.latency_p95_ms = window.p95_s * 1e3;

  sample.epoch_skew = keyed == 0 ? 0 : epoch_max - epoch_min;
  sample.epoch_mean =
      keyed == 0 ? 0.0 : static_cast<double>(epoch_sum) / keyed;
  return sample;
}

}  // namespace ldke::core

#include "net/channel.hpp"

#include <cassert>

namespace ldke::net {

void Channel::LaneTallies::resolve_handles(sim::TraceCounters& counters) {
  ctr_tx = counters.handle("channel.tx");
  ctr_tx_external = counters.handle("channel.tx_external");
  ctr_delivered = counters.handle("channel.delivered");
  ctr_lost = counters.handle("channel.lost");
  ctr_collision = counters.handle("channel.collision");
  ctr_csma_defer = counters.handle("channel.csma_defer");
  ctr_csma_drop = counters.handle("channel.csma_drop");
  ctr_dropped_gone = counters.handle("pkt.dropped_gone");
  ctr_dropped_partition = counters.handle("pkt.dropped_partition");
}

Channel::Channel(sim::Simulator& sim, const Topology& topology,
                 EnergyModel& energy, sim::TraceCounters& counters,
                 ChannelConfig config)
    : sim_(sim),
      topology_(topology),
      energy_(energy),
      counters_(counters),
      config_(config),
      tallies_(1) {
  tallies_[0].resolve_handles(counters);
}

sim::SimTime Channel::tx_duration(const Packet& packet) const noexcept {
  const double bits = static_cast<double>(packet.size_bytes()) * 8.0;
  return sim::SimTime::from_seconds(bits / config_.bitrate_bps);
}

sim::SimTime Channel::min_latency() const noexcept {
  const double overhead_bits = static_cast<double>(kFrameOverheadBytes) * 8.0;
  return sim::SimTime::from_seconds(overhead_bits / config_.bitrate_bps) +
         config_.propagation_delay;
}

void Channel::enable_lanes(sim::ShardedKernel& kernel,
                           const std::vector<std::uint32_t>& lane_of,
                           std::span<sim::TraceCounters* const> lane_counters) {
  assert(lane_counters.size() == kernel.lane_count());
  assert(config_.loss_probability == 0.0 && !config_.model_collisions &&
         !config_.csma && "lane-incompatible channel features enabled");
  kernel_ = &kernel;
  lane_of_ = &lane_of;
  tallies_.clear();
  tallies_.resize(kernel.lane_count());
  for (std::size_t l = 0; l < tallies_.size(); ++l) {
    tallies_[l].resolve_handles(*lane_counters[l]);
  }
}

Channel::KindArray Channel::tx_packets_by_kind() const noexcept {
  KindArray out{};
  for (const LaneTallies& t : tallies_) {
    for (std::size_t k = 0; k < kPacketKindCount; ++k) {
      out[k] += t.tx_packets_by_kind[k];
    }
  }
  return out;
}

Channel::KindArray Channel::tx_bytes_by_kind() const noexcept {
  KindArray out{};
  for (const LaneTallies& t : tallies_) {
    for (std::size_t k = 0; k < kPacketKindCount; ++k) {
      out[k] += t.tx_bytes_by_kind[k];
    }
  }
  return out;
}

std::shared_ptr<bool> Channel::track_reception(NodeId receiver,
                                               sim::SimTime when) {
  auto corrupted = std::make_shared<bool>(false);
  auto& active = active_receptions_[receiver];
  // Prune receptions that already finished (their events have run).
  std::erase_if(active,
                [now = sim_.now()](const Reception& r) { return r.end <= now; });
  for (Reception& ongoing : active) {
    // Any temporal overlap corrupts both frames (no capture effect).
    *ongoing.corrupted = true;
    *corrupted = true;
  }
  active.push_back(Reception{when, corrupted});
  return corrupted;
}

void Channel::schedule_delivery(NodeId receiver, const Packet& packet,
                                sim::SimTime when) {
  if (config_.loss_probability > 0.0 &&
      sim_.rng().bernoulli(config_.loss_probability)) {
    LaneTallies& t = tallies();
    ++t.losses;
    counters_.increment(t.ctr_lost);
    return;
  }
  std::shared_ptr<bool> corrupted;
  if (config_.model_collisions) {
    corrupted = track_reception(receiver, when);
  }
  // Carrier sensing: an incoming frame keeps the receiver's medium busy
  // until it fully arrives.
  if (config_.csma) note_busy(receiver, when);
  // Capturing the packet by value only bumps the payload refcount — the
  // bytes are immutable and shared across every receiver's event.
  auto deliver = [this, receiver, packet, corrupted] {
    // A node that left or slept between transmission and arrival hears
    // nothing: no rx energy, no dispatch into its (possibly recycled)
    // slot — the frame just dies on the air.
    if (delivery_gate_ && !delivery_gate_(receiver)) {
      LaneTallies& gt = tallies();
      ++gt.dropped_gone;
      counters_.increment(gt.ctr_dropped_gone);
      return;
    }
    // The radio listened either way.  Runs on the receiver's lane, so
    // the tallies cell and the per-node energy slot are lane-local.
    energy_.charge_rx(receiver, packet.size_bytes());
    LaneTallies& t = tallies();
    if (corrupted && *corrupted) {
      ++t.collisions;
      counters_.increment(t.ctr_collision);
      return;
    }
    ++t.rx_count;
    counters_.increment(t.ctr_delivered);
    if (deliver_) deliver_(receiver, packet);
  };
  if (kernel_ != nullptr) {
    const std::uint32_t dst = (*lane_of_)[receiver];
    if (dst != sim::ShardedKernel::current_lane()) {
      // Halo delivery: buffered in the per-lane-pair outbox and merged
      // at the next window barrier in canonical order.  `when` satisfies
      // the lookahead contract because it is at least min_latency()
      // after the transmission.
      kernel_->schedule_cross(dst, when, std::move(deliver));
      return;
    }
  }
  sim_.schedule_at(when, std::move(deliver));
}

void Channel::note_busy(NodeId node, sim::SimTime until) {
  auto& busy = busy_until_[node];
  if (until > busy) busy = until;
}

void Channel::fan_out(const Packet& packet, std::span<const NodeId> receivers,
                      sim::SimTime arrival,
                      sim::TraceCounters::Handle LaneTallies::* tx_counter) {
  if (sniffer_) sniffer_(packet);
  LaneTallies& t = tallies();
  ++t.tx_count;
  t.tx_bytes += packet.size_bytes();
  const auto kind = static_cast<std::size_t>(packet.kind);
  if (kind < kPacketKindCount) {
    ++t.tx_packets_by_kind[kind];
    t.tx_bytes_by_kind[kind] += packet.size_bytes();
  }
  counters_.increment(t.*tx_counter);
  for (NodeId receiver : receivers) {
    // Link validity is a transmit-time fact (a partition wall blocks the
    // signal itself), so gate before the per-receiver loss draw.
    if (link_gate_ && !link_gate_(packet.sender, receiver)) {
      ++t.dropped_partition;
      counters_.increment(t.ctr_dropped_partition);
      continue;
    }
    schedule_delivery(receiver, packet, arrival);
  }
}

void Channel::emit_now(const Packet& packet) {
  const sim::SimTime tx_end = sim_.now() + tx_duration(packet);
  energy_.charge_tx(packet.sender, packet.size_bytes(), topology_.range());
  if (config_.csma) note_busy(packet.sender, tx_end);
  fan_out(packet, topology_.neighbors(packet.sender),
          tx_end + config_.propagation_delay, &LaneTallies::ctr_tx);
}

void Channel::csma_transmit(Packet packet, int attempt) {
  const auto it = busy_until_.find(packet.sender);
  const bool busy = it != busy_until_.end() && it->second > sim_.now();
  if (!busy) {
    emit_now(packet);
    return;
  }
  LaneTallies& t = tallies();
  if (attempt >= config_.csma_max_attempts) {
    ++t.csma_drops;
    counters_.increment(t.ctr_csma_drop);
    return;
  }
  ++t.csma_deferrals;
  counters_.increment(t.ctr_csma_defer);
  const sim::SimTime resume =
      it->second + sim::SimTime::from_seconds(
                       sim_.rng().exponential(1.0 / config_.csma_backoff_mean_s));
  sim_.schedule_at(resume, [this, packet = std::move(packet), attempt] {
    csma_transmit(packet, attempt + 1);
  });
}

void Channel::broadcast(const Packet& packet) {
  if (config_.csma) {
    csma_transmit(packet, 0);
  } else {
    emit_now(packet);
  }
}

void Channel::broadcast_from(Vec2 position, double radius,
                             const Packet& packet) {
  const std::vector<NodeId> receivers = topology_.nodes_within(position, radius);
  fan_out(packet, receivers,
          sim_.now() + tx_duration(packet) + config_.propagation_delay,
          &LaneTallies::ctr_tx_external);
}

}  // namespace ldke::net

#include "core/dataplane.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "analysis/run_artifacts.hpp"
#include "net/packet_trace.hpp"
#include "obs/audit.hpp"
#include "test_helpers.hpp"

namespace ldke::core {
namespace {

using testing::after_routing;
using testing::small_config;

struct SniffedPacket {
  net::NodeId sender = net::kNoNode;
  net::PacketKind kind = net::PacketKind::kData;
  support::Bytes payload;
  friend bool operator==(const SniffedPacket&, const SniffedPacket&) = default;
};

/// Records every frame the channel transmits, byte for byte.
std::shared_ptr<std::vector<SniffedPacket>> attach_sniffer(
    ProtocolRunner& runner) {
  auto trace = std::make_shared<std::vector<SniffedPacket>>();
  runner.network().channel().set_sniffer([trace](const net::Packet& pkt) {
    trace->push_back({pkt.sender, pkt.kind, pkt.payload.to_bytes()});
  });
  return trace;
}

DataPlaneConfig engine_config() {
  DataPlaneConfig cfg;
  cfg.duration_s = 2.0;
  cfg.tick_interval_s = 0.05;
  cfg.readings_per_tick = 24;
  cfg.reading_bytes = 20;
  // Exercise the control plane concurrently with traffic: one refresh
  // and one eviction land inside the window.
  cfg.refresh_interval_s = 0.9;
  cfg.evict_interval_s = 1.3;
  cfg.evict_batch = 1;
  cfg.arena_generation_ticks = 8;
  return cfg;
}

/// Streaming FNV-1a 64.
struct Fnv1a64 {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint8_t byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  void add_u64(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) add(static_cast<std::uint8_t>(word >> (8 * b)));
  }
  template <typename Range>
  void add_bytes(const Range& bytes) {
    for (const auto byte : bytes) add(static_cast<std::uint8_t>(byte));
  }
};

// Golden pin of the data plane on one seed: every frame on the air, the
// delivered count, the RNG position and the deployment-wide crypto work.
// Any change to what the steady state seals, sends or delivers moves a
// value.
TEST(DataPlane, GoldenRunIsPinned) {
  auto runner = after_routing(small_config(11));
  const auto frames = attach_sniffer(*runner);
  DataPlaneEngine engine{*runner, engine_config()};
  const DataPlaneStats stats = engine.run();
  EXPECT_EQ(stats.attempts, 953u);
  EXPECT_EQ(stats.originated, 951u);
  EXPECT_EQ(stats.refresh_rounds, 2u);
  EXPECT_EQ(stats.clusters_evicted, 1u);
  EXPECT_EQ(stats.arena_generations, 5u);

  Fnv1a64 frames_digest;
  for (const SniffedPacket& pkt : *frames) {
    frames_digest.add_u64(pkt.sender);
    frames_digest.add(static_cast<std::uint8_t>(pkt.kind));
    frames_digest.add_bytes(pkt.payload);
  }
  EXPECT_EQ(frames->size(), 4345u);
  EXPECT_EQ(frames_digest.h, 2284469292906397358ULL);

  EXPECT_EQ(runner->deliveries().samples().size(), 691u);
  EXPECT_EQ(runner->base_station()->readings().size(), 691u);
  // Loss draws and node timers consumed the same RNG stream.
  EXPECT_EQ(runner->sim().rng().uniform_u64(1u << 30), 587371473u);

  crypto::CryptoCounters total = runner->crypto_totals();
  total += engine.crypto_stats();
  EXPECT_EQ(total.seals, 5468u);
  EXPECT_EQ(total.opens, 47753u);
  EXPECT_EQ(total.open_failures, 1757u);
  // Counts the subkey derivations of every SealContext built, so it
  // also moves when a context cache changes shape.
  EXPECT_EQ(total.prf_calls, 16546u);
  EXPECT_EQ(total.sealed_bytes, 255550u);
  EXPECT_EQ(total.opened_bytes, 2860627u);
}

// Golden pin of the serialized trace artifacts (spans, packets, audits,
// deliveries) of the same run as GoldenRunIsPinned.  The packet trace
// owns the sniffer hook, so this is a run of its own.
TEST(DataPlane, GoldenTraceIsPinned) {
  auto traced = after_routing(small_config(11));
  net::PacketTrace trace{1 << 20};
  obs::AuditSink audit;
  trace.attach(traced->network());
  traced->network().set_audit_sink(&audit);
  DataPlaneEngine{*traced, engine_config()}.run();
  std::ostringstream os;
  analysis::TraceArtifacts artifacts;
  artifacts.packets = &trace;
  artifacts.audit = &audit;
  analysis::write_trace_jsonl(os, *traced, "test", artifacts);
  Fnv1a64 trace_digest;
  trace_digest.add_bytes(os.str());
  EXPECT_EQ(trace_digest.h, 18385543889337673783ULL);
}

TEST(DataPlane, EmitsRefreshAndEvictionAudits) {
  auto runner = after_routing(small_config(11));
  obs::AuditSink audit;
  runner->network().set_audit_sink(&audit);
  DataPlaneEngine engine{*runner, engine_config()};
  const DataPlaneStats stats = engine.run();
  ASSERT_GT(stats.refresh_rounds, 0u);
  ASSERT_GT(stats.clusters_evicted, 0u);

  const auto counts = audit.counts_by_kind();
  EXPECT_EQ(counts[static_cast<std::size_t>(obs::AuditKind::kRefreshRound)],
            stats.refresh_rounds);
  EXPECT_GT(
      counts[static_cast<std::size_t>(obs::AuditKind::kRefreshApplied)], 0u);
  EXPECT_EQ(
      counts[static_cast<std::size_t>(obs::AuditKind::kEvictionIssued)],
      stats.clusters_evicted);
  // Every revoked cluster's members saw the revocation and wiped keys.
  EXPECT_GT(counts[static_cast<std::size_t>(obs::AuditKind::kEvicted)], 0u);

  // Convergence invariant: after each eviction a refresh round follows
  // among the survivors (the refresh driver outlives the evict driver
  // in engine_config), except possibly at the trace tail.
  const auto events = audit.merged();
  std::int64_t last_evict_ns = -1, last_refresh_ns = -1;
  for (const auto& event : events) {
    if (event.kind == obs::AuditKind::kEvictionIssued) {
      last_evict_ns = event.t_ns;
    }
    if (event.kind == obs::AuditKind::kRefreshApplied) {
      last_refresh_ns = event.t_ns;
    }
  }
  ASSERT_GE(last_evict_ns, 0);
  EXPECT_GT(last_refresh_ns, last_evict_ns);
}

TEST(DataPlane, SteadyStateSpanLandsOnTheTimeline) {
  auto runner = after_routing(small_config(13, 80));
  DataPlaneConfig cfg;
  cfg.duration_s = 0.5;
  cfg.tick_interval_s = 0.05;
  cfg.readings_per_tick = 8;
  DataPlaneEngine engine{*runner, cfg};
  const DataPlaneStats stats = engine.run();
  EXPECT_NEAR(stats.sim_elapsed_s, 0.5, 1e-9);
  bool found = false;
  for (const auto& span : runner->timeline().spans()) {
    if (span.name == "steady_state") {
      found = true;
      EXPECT_EQ(span.t1_ns - span.t0_ns, 500'000'000);
    }
  }
  EXPECT_TRUE(found);
}

TEST(DataPlane, LongBurnArenaStaysBounded) {
  auto runner = after_routing(small_config(5, 120));
  DataPlaneConfig cfg;
  cfg.duration_s = 1.0;
  cfg.tick_interval_s = 0.02;
  cfg.readings_per_tick = 16;
  cfg.arena_generation_ticks = 4;
  DataPlaneEngine warmup{*runner, cfg};
  warmup.run();
  const std::size_t chunks_after_warmup = runner->payload_arena().chunk_count();
  const std::uint64_t gen_after_warmup = runner->payload_arena().generation();
  ASSERT_GT(gen_after_warmup, 0u);
  ASSERT_GT(chunks_after_warmup, 0u);

  cfg.duration_s = 3.0;  // 3x the traffic of the warmup window
  DataPlaneEngine burn{*runner, cfg};
  burn.run();
  EXPECT_GT(runner->payload_arena().generation(), gen_after_warmup);
  // Generation reclamation keeps the chunk population at the in-flight
  // working set: 3x the traffic must not come close to 3x the chunks.
  EXPECT_LE(runner->payload_arena().chunk_count(),
            chunks_after_warmup + chunks_after_warmup / 2 + 4);
}

TEST(DataPlane, RejectsTheShardedKernel) {
  auto cfg = small_config(3, 60);
  cfg.kernel.lanes = 2;
  auto runner = after_routing(cfg);
  ASSERT_NE(runner->sim().kernel(), nullptr);
  // Rejected at construction, not mid-run.
  EXPECT_THROW((DataPlaneEngine{*runner, DataPlaneConfig{}}),
               std::invalid_argument);
}

TEST(DataPlane, RejectsNonPositiveTickInterval) {
  auto runner = after_routing(small_config(3, 60));
  DataPlaneConfig cfg;
  cfg.tick_interval_s = 0.0;
  EXPECT_THROW(DataPlaneEngine(*runner, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace ldke::core

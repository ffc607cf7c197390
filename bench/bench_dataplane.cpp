/// Steady-state data-plane bench.  One forked child runs setup + routing
/// + a DataPlaneEngine window and pipes back throughput, DeliveryTracker
/// p50/p95/p99 and crypto totals; the parent adds the child's peak RSS
/// from wait4, so the figure covers this one deployment, whose payload
/// arena must stay bounded across the window.  Seal/open throughput in
/// isolation lives in bench_crypto_micro.
///
/// Results land in results/BENCH_dataplane.json.  Env knobs:
/// LDKE_BENCH_DATAPLANE_NODES, _DENSITY, _DURATION (engine window s),
/// _OUT (output path, "" disables), _MIN_PPS (originations/s floor over
/// the engine's wall time; 0 = no gate).

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>

#include "bench_common.hpp"
#include "core/dataplane.hpp"
#include "crypto/cpu_features.hpp"
#include "support/table.hpp"

namespace {

using namespace ldke;

double env_double(const char* name, double fallback) {
  if (const char* env = std::getenv(name)) {
    const double v = std::strtod(env, nullptr);
    if (v > 0.0) return v;
  }
  return fallback;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct EngineReport {
  double setup_s = 0.0;   ///< key setup + routing wall time
  double engine_s = 0.0;  ///< steady-state window wall time
  std::uint64_t originated = 0;
  std::uint64_t hop_tx = 0;
  std::uint64_t delivered = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t seals = 0;
  std::uint64_t opens = 0;
  std::uint64_t refresh_rounds = 0;
  std::uint64_t arena_generations = 0;
};

bool run_engine(std::size_t nodes, double density, double duration_s,
                std::uint64_t seed, EngineReport& report, long& peak_rss_kb) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    close(fds[0]);
    EngineReport r;
    {
      core::RunnerConfig cfg = bench::base_config();
      cfg.node_count = nodes;
      cfg.density = density;
      cfg.seed = seed;
      core::ProtocolRunner runner{cfg};
      const auto t0 = std::chrono::steady_clock::now();
      runner.run_key_setup();
      runner.run_routing_setup();
      r.setup_s = seconds_since(t0);

      core::DataPlaneConfig dp;
      dp.duration_s = duration_s;
      dp.refresh_interval_s = 1.0;
      dp.evict_interval_s = 2.5;
      core::DataPlaneEngine engine{runner, dp};
      const auto t1 = std::chrono::steady_clock::now();
      const core::DataPlaneStats stats = engine.run();
      r.engine_s = seconds_since(t1);

      const obs::DeliveryTracker& dt = runner.deliveries();
      r.originated = stats.originated;
      r.hop_tx = runner.network().counters().value("data.hop_tx");
      r.delivered = dt.delivered();
      r.p50_ms = dt.latency_percentile_s(0.50) * 1e3;
      r.p95_ms = dt.latency_percentile_s(0.95) * 1e3;
      r.p99_ms = dt.latency_percentile_s(0.99) * 1e3;
      crypto::CryptoCounters totals = runner.crypto_totals();
      totals += engine.crypto_stats();
      r.seals = totals.seals;
      r.opens = totals.opens;
      r.refresh_rounds = stats.refresh_rounds;
      r.arena_generations = stats.arena_generations;
    }
    const bool ok = write(fds[1], &r, sizeof(r)) == sizeof(r);
    close(fds[1]);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  const bool got = read(fds[0], &report, sizeof(report)) == sizeof(report);
  close(fds[0]);
  int status = 0;
  struct rusage ru {};
  if (wait4(pid, &status, 0, &ru) != pid) return false;
  peak_rss_kb = ru.ru_maxrss;
  return got && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

obs::JsonValue engine_json(const EngineReport& r, long rss_kb) {
  obs::JsonValue point;
  point.set("setup_s", r.setup_s);
  point.set("engine_wall_s", r.engine_s);
  point.set("originated", r.originated);
  point.set("hop_tx", r.hop_tx);
  point.set("delivered", r.delivered);
  point.set("originated_per_s",
            static_cast<double>(r.originated) / r.engine_s);
  point.set("hop_tx_per_s", static_cast<double>(r.hop_tx) / r.engine_s);
  point.set("seal_per_s", static_cast<double>(r.seals) / r.engine_s);
  point.set("open_per_s", static_cast<double>(r.opens) / r.engine_s);
  point.set("latency_p50_ms", r.p50_ms);
  point.set("latency_p95_ms", r.p95_ms);
  point.set("latency_p99_ms", r.p99_ms);
  point.set("seals", r.seals);
  point.set("opens", r.opens);
  point.set("refresh_rounds", r.refresh_rounds);
  point.set("arena_generations", r.arena_generations);
  point.set("peak_rss_kb", static_cast<std::int64_t>(rss_kb));
  return point;
}

}  // namespace

int main() {
  const auto nodes = static_cast<std::size_t>(
      env_double("LDKE_BENCH_DATAPLANE_NODES", 600));
  const double density = env_double("LDKE_BENCH_DATAPLANE_DENSITY", 12.0);
  const double duration = env_double("LDKE_BENCH_DATAPLANE_DURATION", 5.0);
  const std::uint64_t seed = bench::base_config().seed;
  const bool hw = crypto::detail::cpu_has_aesni() &&
                  crypto::detail::cpu_has_sha_ni();
  const double min_pps = env_double("LDKE_BENCH_DATAPLANE_MIN_PPS", 0.0);

  std::cout << "Data-plane bench: " << nodes << " nodes, density " << density
            << ", " << duration << " s steady state (AES-NI+SHA-NI: "
            << (hw ? "yes" : "no") << ")\n\n";

  EngineReport r;
  long rss_kb = 0;
  if (!run_engine(nodes, density, duration, seed, r, rss_kb)) {
    std::cerr << "engine child failed\n";
    return 1;
  }
  const double pps = static_cast<double>(r.originated) / r.engine_s;

  support::TextTable table({"engine (s)", "originated/s", "hop tx/s",
                            "p50 (ms)", "p95 (ms)", "p99 (ms)", "RSS (MB)"});
  table.add_row({support::fmt(r.engine_s, 2), support::fmt(pps, 0),
                 support::fmt(static_cast<double>(r.hop_tx) / r.engine_s, 0),
                 support::fmt(r.p50_ms, 2), support::fmt(r.p95_ms, 2),
                 support::fmt(r.p99_ms, 2),
                 support::fmt(static_cast<double>(rss_kb) / 1024.0, 1)});
  table.print(std::cout);

  obs::JsonValue doc;
  doc.set("schema_version", 2);
  doc.set("bench", "dataplane");
  doc.set("nodes", static_cast<std::uint64_t>(nodes));
  doc.set("density", density);
  doc.set("duration_s", duration);
  doc.set("seed", seed);
  doc.set("aesni_shani", hw);
  doc.set("pipeline", engine_json(r, rss_kb));

  const char* out_env = std::getenv("LDKE_BENCH_DATAPLANE_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "results/BENCH_dataplane.json";
  if (!out_path.empty()) {
    std::ofstream os(out_path);
    if (!os) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    os << doc.dump() << "\n";
    std::cout << "wrote " << out_path << "\n";
  }

  if (min_pps > 0.0 && pps < min_pps) {
    std::cerr << "FAIL: " << support::fmt(pps, 0)
              << " originations/s below the " << support::fmt(min_pps, 0)
              << " floor\n";
    return 1;
  }
  return 0;
}

/// \file ldke_perfbench.cpp
/// Workload program of the end-to-end benchmark.  perfbench/run.py builds
/// it, runs it in its own process per mode, checks its outputs and prints
/// the benchmark's result line; see perfbench/README.md.
///
///   ldke_perfbench --workload <keysetup_100k|steady_2k|dynamics_10k>
///                  --seed N --seconds S --mode <measure|trace>
///                  --spec perfbench/workloads/dynamics_10k.json
///                  [--trace-out FILE]
///
/// measure: repeats the workload for about S seconds (at least kMinReps
///   times) and prints, as one JSON line, each repetition's host
///   timings, the simulated outcome (which must be identical in every
///   repetition), the correctness-check failures and the peak RSS.
/// trace:   runs the workload once untraced as a reference, then once
///   with a span around every public call into the library, reading the
///   library's counters at the span boundaries; then it probes each layer's hot function on the workload's
///   own state and prints the per-layer metrics and the attribution.
///   Spans are kept in memory and written to --trace-out at exit.
///
/// All spans and probes time calls from outside the library; nothing in
/// src/ is instrumented for this program.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dataplane.hpp"
#include "core/health_probe.hpp"
#include "core/metrics.hpp"
#include "core/runner.hpp"
#include "crypto/prf.hpp"
#include "crypto/seal_context.hpp"
#include "net/topology.hpp"
#include "obs/audit.hpp"
#include "obs/json.hpp"
#include "scenario/engine.hpp"
#include "scenario/mobility.hpp"
#include "scenario/spec.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace {

using namespace ldke;
using obs::JsonValue;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A reading counts as on time when it reaches the base station within
/// one §IV-C refresh interval of its origination.
constexpr double kOnTimeLimitS = 1.0;
/// Repetitions a measure run makes even when --seconds has run out.
constexpr int kMinReps = 2;
/// Motion epochs the mobility probe replays on workloads without motion.
constexpr std::size_t kProbeMotionEpochs = 16;

enum class Traffic {
  kReadingRound,  ///< the sink's surroundings report in rounds of waves
  kDataPlane,     ///< DataPlaneEngine steady-state window on the set-up runner
  kScenario,      ///< ScenarioEngine on a fresh runner (it owns its set-up)
};

struct Workload {
  std::string name;
  std::uint64_t seed = 1;
  /// Deployment parameters; the seed is replaced per deployment.
  core::RunnerConfig deployment;
  /// Independent deployments pooled per repetition, so that outcomes
  /// that swing with the field a seed draws (which routes a move breaks,
  /// which nodes sleep) average out.  With one, the deployment uses the
  /// seed itself.
  std::size_t deployments = 1;
  /// Set-ups timed back to back per setup_s sample, so that one sample
  /// lasts about a second even for small deployments.
  std::size_t setups_per_sample = 1;
  Traffic traffic = Traffic::kDataPlane;
  core::DataPlaneConfig dataplane;
  /// Simulated seconds run_routing_setup() lets the gradient flood settle.
  double routing_settle_s = 1.0;
  /// kReadingRound: sensors within round_hops of the sink report once,
  /// split into round_waves waves 1 simulated second apart, then the
  /// round drains for round_drain_s.  The traffic phase is round_count
  /// such rounds back to back, so that it lasts several seconds.
  std::size_t round_count = 0;
  std::uint32_t round_hops = 0;
  std::size_t round_waves = 0;
  double round_drain_s = 0.0;
  /// The dynamics spec; its motion model also drives the mobility probe
  /// on the workloads that do not move.
  scenario::ScenarioSpec spec;
};

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const scenario::ScenarioSpec& spec) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.spec = spec;
  if (name == "keysetup_100k") {
    w.deployment.node_count = 100000;
    w.deployment.density = 20.0;
    w.deployment.seed = seed;
    w.deployment.kernel.lanes = 2;
    // At 8 m radio range the beacon flood needs ~2.5 simulated seconds
    // to reach the corners from the central sink; the default 1 s settle
    // routes only about a third of the field.
    w.routing_settle_s = 3.0;
    w.setups_per_sample = 1;
    w.traffic = Traffic::kReadingRound;
    w.round_count = 4;
    w.round_hops = 20;
    w.round_waves = 10;
    w.round_drain_s = 2.0;
  } else if (name == "steady_2k") {
    w.deployment.node_count = 2000;
    w.deployment.density = 12.0;
    w.deployment.seed = seed;
    w.setups_per_sample = 16;
    w.traffic = Traffic::kDataPlane;
    w.dataplane.duration_s = 20.0;
    w.dataplane.refresh_interval_s = 1.0;
  } else if (name == "dynamics_10k") {
    w.deployment = scenario::ScenarioEngine::make_runner_config(spec, seed);
    w.deployments = 8;
    w.setups_per_sample = 8;
    w.traffic = Traffic::kScenario;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

// ---------------------------------------------------------------- tracing

/// Library counters read at a span boundary.
struct CounterSnapshot {
  std::uint64_t events = 0;
  std::uint64_t tx = 0;
  std::uint64_t rx = 0;
  crypto::CryptoCounters crypto;
};

CounterSnapshot snapshot(core::ProtocolRunner* runner) {
  CounterSnapshot s;
  if (runner == nullptr) return s;
  core::ProtocolRunner& r = *runner;
  s.events = r.sim().events_executed();
  s.tx = r.network().channel().transmissions();
  s.rx = r.network().channel().deliveries();
  s.crypto = r.crypto_totals();
  return s;
}

/// In-memory span recorder.  Spans nest by call order; each carries the
/// counters read when it opened and closed.
class Tracer {
 public:
  explicit Tracer(std::string run_id) : run_id_(std::move(run_id)) {}

  int begin(std::string name, core::ProtocolRunner* runner) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{std::move(name), parent, Clock::now(), {},
                          snapshot(runner), {}});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int id, core::ProtocolRunner* runner) {
    Span& s = spans_.at(static_cast<std::size_t>(id));
    s.t1 = Clock::now();
    s.end = snapshot(runner);
    open_.pop_back();
  }

  /// Summed duration of every span called \p name.
  [[nodiscard]] double seconds(const std::string& name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) {
        total += std::chrono::duration<double>(s.t1 - s.t0).count();
      }
    }
    return total;
  }

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  void write_jsonl(std::ostream& out) const {
    const Clock::time_point origin =
        spans_.empty() ? Clock::now() : spans_.front().t0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto ns = [&](Clock::time_point t) {
        return static_cast<std::int64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
                .count());
      };
      JsonValue line;
      line.set("run", run_id_);
      line.set("id", static_cast<std::int64_t>(i));
      line.set("parent", static_cast<std::int64_t>(s.parent));
      line.set("name", s.name);
      line.set("start_ns", ns(s.t0));
      line.set("end_ns", ns(s.t1));
      line.set("events", s.end.events - s.begin.events);
      line.set("tx", s.end.tx - s.begin.tx);
      line.set("rx", s.end.rx - s.begin.rx);
      line.set("seals", s.end.crypto.seals - s.begin.crypto.seals);
      line.set("opens", s.end.crypto.opens - s.begin.crypto.opens);
      line.set("prf_calls", s.end.crypto.prf_calls - s.begin.crypto.prf_calls);
      out << line.dump() << '\n';
    }
  }

 private:
  struct Span {
    std::string name;
    int parent = -1;
    Clock::time_point t0;
    Clock::time_point t1;
    CounterSnapshot begin;
    CounterSnapshot end;
  };
  std::string run_id_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Times one call; records a span when a tracer is present.
class Stopwatch {
 public:
  Stopwatch(Tracer* tracer, std::string name,
            core::ProtocolRunner* runner = nullptr)
      : tracer_(tracer), t0_(Clock::now()) {
    if (tracer_ != nullptr) id_ = tracer_->begin(std::move(name), runner);
  }
  /// Closes the span (counters read from \p runner) and returns seconds.
  double stop(core::ProtocolRunner* runner = nullptr) {
    const double s = since(t0_);
    if (tracer_ != nullptr) tracer_->end(id_, runner);
    return s;
  }

 private:
  Tracer* tracer_;
  Clock::time_point t0_;
  int id_ = -1;
};

// --------------------------------------------------------------- workload

/// Simulated outcome of one repetition, summed over its deployments.
struct Outcome {
  double nodes = 0.0, keys = 0.0, setup_msgs = 0.0;  // setup metrics x nodes
  std::uint64_t clusters = 0, routed = 0;
  double secured_sum = 0.0;
  std::size_t secured_samples = 0;
  std::uint64_t originated = 0, delivered = 0, on_time = 0;
  std::vector<double> latencies_ms;
  std::uint64_t events = 0, tx = 0, rx = 0;
  std::uint64_t dropped_gone = 0, dropped_partition = 0, tx_gated = 0;
  std::size_t queue_high_water = 0;
  crypto::CryptoCounters crypto;
  // kScenario only
  JsonValue digests{obs::JsonArray{}};
  std::uint64_t joins = 0, join_successes = 0, departures = 0;
  std::uint64_t sleeps = 0, wakes = 0, motion_epochs = 0, reclusters = 0;
};

/// Everything one repetition leaves behind.  The last runners stay alive
/// so a traced run can probe the workload's own state afterwards.
struct Rep {
  double setup_s = 0.0;        ///< mean host time of one set-up in the block
  double traffic_s = 0.0;      ///< host time of the traffic phases
  /// kScenario: traffic_s split per deployment, in deployment order; the
  /// report prints it, so a slow stretch of the host shows within a
  /// repetition.
  std::vector<double> traffic_parts_s;
  double traffic_sim_s = 0.0;  ///< simulated seconds of those phases
  double deploy_s = 0.0, key_setup_s = 0.0, routing_s = 0.0;  // per set-up
  double heap_bytes_per_node = 0.0;  ///< traced runs: last set-up's heap
  Outcome outcome;
  JsonValue fingerprint;  ///< the outcome as JSON; exact per seed
  std::vector<std::string> failures;
  /// Traced runs only: the traffic runners' audit stream.  Declared
  /// before the runners, which hold a pointer to it.
  std::unique_ptr<obs::AuditSink> audit;
  std::unique_ptr<core::ProtocolRunner> setup_runner;    ///< last set-up
  std::unique_ptr<core::ProtocolRunner> traffic_runner;  ///< last scenario
};

core::ProtocolRunner& traffic_runner(Rep& rep) {
  return rep.traffic_runner ? *rep.traffic_runner : *rep.setup_runner;
}

/// Deployment \p k of the workload: the seed itself when the workload
/// has one deployment, else a seed derived from it.
core::RunnerConfig deployment(const Workload& w, std::size_t k) {
  core::RunnerConfig config = w.deployment;
  if (w.deployments > 1) config.seed = support::derive_seed(w.seed, k);
  return config;
}

/// Heap bytes in use (glibc's allocator statistics).
std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

/// Moves the base station (node 0) to the centre of the field before the
/// protocol starts.  Sensor positions stay random per seed; a fixed sink
/// position keeps hop counts, and with them every delivery and latency
/// figure, from swinging with where the seed happened to drop node 0.
void center_base_station(core::ProtocolRunner& runner) {
  const double mid = runner.config().side_m / 2.0;
  const net::NodeId bs[] = {0};
  const net::Vec2 at[] = {{mid, mid}};
  runner.network().apply_displacements(bs, at);
}

/// ProtocolRunner constructor + key setup + routing of deployment \p k,
/// the set-up that setup_s times.  A traced run attaches the audit sink
/// to a runner that will carry traffic before its key setup starts.
void set_up(const Workload& w, std::size_t k, Tracer* tracer, Rep& rep) {
  rep.setup_runner.reset();  // the previous block member's memory goes first
  const std::size_t heap0 = tracer ? heap_in_use() : 0;
  Stopwatch deploy{tracer, "core.deploy"};
  rep.setup_runner = std::make_unique<core::ProtocolRunner>(deployment(w, k));
  center_base_station(*rep.setup_runner);
  rep.deploy_s = deploy.stop(rep.setup_runner.get());
  if (rep.audit && w.traffic != Traffic::kScenario) {
    rep.setup_runner->network().set_audit_sink(rep.audit.get());
  }
  Stopwatch keys{tracer, "core.key_setup", rep.setup_runner.get()};
  rep.setup_runner->run_key_setup();
  rep.key_setup_s = keys.stop(rep.setup_runner.get());
  Stopwatch routing{tracer, "wsn.routing", rep.setup_runner.get()};
  rep.setup_runner->run_routing_setup(w.routing_settle_s);
  rep.routing_s = routing.stop(rep.setup_runner.get());
  if (tracer) {
    rep.heap_bytes_per_node =
        (static_cast<double>(heap_in_use()) - static_cast<double>(heap0)) /
        static_cast<double>(rep.setup_runner->node_count());
  }
}

/// Post-set-up invariants (every node holds a cluster key and has erased
/// the master key Km) and the paper's set-up metrics.
void record_setup(core::ProtocolRunner& runner, bool probe_secured,
                  Rep& rep) {
  std::size_t keyless = 0, km_held = 0;
  Outcome& o = rep.outcome;
  for (const auto& node : runner.nodes()) {
    if (!node->keys().has_own()) ++keyless;
    if (!node->master_erased()) ++km_held;
    if (node->routing().has_route()) ++o.routed;
  }
  if (keyless != 0) {
    rep.failures.push_back(std::to_string(keyless) +
                           " nodes hold no cluster key after set-up");
  }
  if (km_held != 0) {
    rep.failures.push_back(std::to_string(km_held) +
                           " nodes still hold Km after set-up");
  }
  const core::SetupMetrics m = core::collect_setup_metrics(runner);
  const double n = static_cast<double>(m.node_count);
  o.nodes += n;
  o.keys += m.mean_keys_per_node * n;
  o.setup_msgs += m.setup_messages_per_node * n;
  o.clusters += m.cluster_count;
  if (probe_secured) {
    const std::int64_t now_ns = runner.sim().now().ns();
    o.secured_sum += core::probe_health(runner, "setup", now_ns, 0, now_ns)
                         .secured_link_fraction;
    ++o.secured_samples;
  }
}

/// Folds a traffic runner's deliveries and counters into the outcome.
void record_traffic(core::ProtocolRunner& runner,
                    const crypto::CryptoCounters& engine_crypto, Rep& rep) {
  Outcome& o = rep.outcome;
  const obs::DeliveryTracker& dt = runner.deliveries();
  o.originated += dt.originated();
  o.delivered += dt.delivered();
  for (const auto& s : dt.samples()) {
    if (s.latency_s() <= kOnTimeLimitS) ++o.on_time;
    o.latencies_ms.push_back(s.latency_s() * 1e3);
  }
  if (dt.unmatched() != 0) {
    rep.failures.push_back(std::to_string(dt.unmatched()) +
                           " deliveries matched no origination");
  }
  o.events += runner.sim().events_executed();
  o.tx += runner.network().channel().transmissions();
  o.rx += runner.network().channel().deliveries();
  o.dropped_gone += runner.network().channel().dropped_gone();
  o.dropped_partition += runner.network().channel().dropped_partition();
  o.tx_gated += runner.network().counters().value("pkt.tx_gated");
  o.queue_high_water =
      std::max(o.queue_high_water, runner.sim().queue_high_water());
  o.crypto += runner.crypto_totals();
  o.crypto += engine_crypto;
}

/// kReadingRound: every sensor within round_hops hops of the sink sends
/// one reading.  Wave k holds the sources whose id is k modulo
/// round_waves; waves start 1 simulated second apart, so the sink's
/// neighbours relay well below their airtime capacity.  Returns the
/// round's simulated duration.
double reading_round(core::ProtocolRunner& runner, const Workload& w) {
  net::Network& net = runner.network();
  const std::uint8_t reading[24] = {0x52};
  for (std::size_t wave = 0; wave < w.round_waves; ++wave) {
    {
      net::PayloadArena::Scope arena{runner.payload_arena()};
      for (net::NodeId id = 1; id < runner.node_count(); ++id) {
        const wsn::RoutingTable& route = runner.node(id).routing();
        if (id % w.round_waves != wave || !route.has_route() ||
            route.hop() > w.round_hops) {
          continue;
        }
        std::optional<sim::ShardedKernel::LaneScope> lane;
        if (const sim::ShardedKernel* kernel = runner.sim().kernel()) {
          lane.emplace(*kernel, net.lane_of(id));
        }
        runner.node(id).send_reading(net, reading);
      }
    }
    runner.run_for(1.0);
  }
  runner.run_for(w.round_drain_s);
  return static_cast<double>(w.round_waves) + w.round_drain_s;
}

/// Runs deployment \p k through the ScenarioEngine on a fresh runner.
void run_scenario(const Workload& w, std::size_t k, Tracer* tracer,
                  Rep& rep) {
  rep.traffic_runner.reset();
  rep.traffic_runner = std::make_unique<core::ProtocolRunner>(deployment(w, k));
  core::ProtocolRunner& runner = *rep.traffic_runner;
  center_base_station(runner);
  if (rep.audit) runner.network().set_audit_sink(rep.audit.get());
  scenario::ScenarioEngine engine{runner, w.spec};
  // The engine's internal data planes charge their hop-wrap seals to
  // themselves, out of reach from here; this sink catches the crypto
  // work that no node or runner scope claims.
  crypto::CryptoCounters unclaimed;
  scenario::ScenarioStats st;
  {
    const crypto::ScopedCryptoCounters scope{unclaimed};
    Stopwatch sw{tracer, "scenario.run", &runner};
    st = engine.run();
    rep.traffic_parts_s.push_back(sw.stop(&runner));
    rep.traffic_s += rep.traffic_parts_s.back();
  }
  rep.traffic_sim_s += w.spec.total_duration_s();
  record_traffic(runner, unclaimed, rep);

  Outcome& o = rep.outcome;
  if (engine.health().empty()) {
    rep.failures.push_back("scenario produced no health sample");
  } else {
    o.secured_sum += engine.health().back().secured_link_fraction;
    ++o.secured_samples;
  }
  if (st.delivered > st.originated) {
    rep.failures.push_back("scenario delivered more than it originated");
  }
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(st.trace_digest));
  o.digests.push(std::string(digest));
  o.joins += st.joins;
  o.departures += st.leaves + st.fails;
  o.reclusters += st.reclusters;
  for (const scenario::PhaseStats& ps : st.phases) {
    o.join_successes += ps.join_successes;
    o.sleeps += ps.sleeps;
    o.wakes += ps.wakes;
    o.motion_epochs += ps.motion_epochs;
  }
}

/// Exact quantile of \p v (sorted in place), nearest-rank.
double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  return v[i];
}

JsonValue fingerprint_of(Outcome& o, double traffic_sim_s) {
  const double originated =
      o.originated == 0 ? 1.0 : static_cast<double>(o.originated);
  JsonValue fp;
  fp.set("nodes", o.nodes);
  fp.set("clusters", o.clusters);
  fp.set("keys_per_node", o.keys / o.nodes);
  fp.set("setup_msgs_per_node", o.setup_msgs / o.nodes);
  fp.set("routed_after_setup", o.routed);
  fp.set("secured_link_fraction",
         o.secured_sum / static_cast<double>(std::max<std::size_t>(
                             o.secured_samples, 1)));
  fp.set("originated", o.originated);
  fp.set("delivered", o.delivered);
  fp.set("on_time", o.on_time);
  fp.set("delivery_ratio", static_cast<double>(o.delivered) / originated);
  fp.set("on_time_ratio", static_cast<double>(o.on_time) / originated);
  fp.set("latency_p50_ms", quantile(o.latencies_ms, 0.50));
  fp.set("latency_p95_ms", quantile(o.latencies_ms, 0.95));
  fp.set("traffic_sim_s", traffic_sim_s);
  fp.set("sim_events", o.events);
  fp.set("channel_tx", o.tx);
  fp.set("channel_rx", o.rx);
  fp.set("seals", o.crypto.seals);
  fp.set("opens", o.crypto.opens);
  fp.set("open_failures", o.crypto.open_failures);
  fp.set("prf_calls", o.crypto.prf_calls);
  if (!o.digests.as_array().empty()) {
    fp.set("trace_digests", o.digests);
    fp.set("joins", o.joins);
    fp.set("join_successes", o.join_successes);
    fp.set("departures", o.departures);
    fp.set("sleeps", o.sleeps);
    fp.set("wakes", o.wakes);
    fp.set("motion_epochs", o.motion_epochs);
    fp.set("reclusters", o.reclusters);
  }
  return fp;
}

Rep run_rep(const Workload& w, Tracer* tracer) {
  Rep rep;
  if (tracer) rep.audit = std::make_unique<obs::AuditSink>();
  const int top = tracer ? tracer->begin("workload." + w.name, nullptr) : -1;

  // Set-up block: setups_per_sample set-ups back to back, cycling over
  // the deployments (one per deployment when traced).  The last set-up
  // of each deployment supplies its set-up metrics; the very last runner
  // carries the traffic unless the scenario engine owns its own.
  const std::size_t setups = tracer ? w.deployments : w.setups_per_sample;
  const bool scenario = w.traffic == Traffic::kScenario;
  double block_s = 0.0;
  for (std::size_t i = 0; i < setups; ++i) {
    set_up(w, i % w.deployments, tracer, rep);
    block_s += rep.deploy_s + rep.key_setup_s + rep.routing_s;
    if (i + w.deployments >= setups) {
      record_setup(*rep.setup_runner, !scenario, rep);
    }
  }
  rep.setup_s = block_s / static_cast<double>(setups);

  switch (w.traffic) {
    case Traffic::kReadingRound: {
      core::ProtocolRunner& runner = *rep.setup_runner;
      Stopwatch sw{tracer, "core.reading_round", &runner};
      for (std::size_t i = 0; i < w.round_count; ++i) {
        rep.traffic_sim_s += reading_round(runner, w);
      }
      rep.traffic_s = sw.stop(&runner);
      record_traffic(runner, {}, rep);
      break;
    }
    case Traffic::kDataPlane: {
      core::ProtocolRunner& runner = *rep.setup_runner;
      core::DataPlaneEngine engine{runner, w.dataplane};
      Stopwatch sw{tracer, "core.dataplane", &runner};
      const core::DataPlaneStats st = engine.run();
      rep.traffic_s = sw.stop(&runner);
      rep.traffic_sim_s = st.sim_elapsed_s;
      record_traffic(runner, engine.crypto_stats(), rep);
      break;
    }
    case Traffic::kScenario:
      for (std::size_t k = 0; k < w.deployments; ++k) {
        run_scenario(w, k, tracer, rep);
      }
      break;
  }
  if (tracer) tracer->end(top, nullptr);

  const Outcome& o = rep.outcome;
  if (o.originated == 0) rep.failures.push_back("no reading originated");
  if (o.delivered > o.originated) {
    rep.failures.push_back("delivered more readings than originated");
  }
  rep.fingerprint = fingerprint_of(rep.outcome, rep.traffic_sim_s);
  return rep;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

JsonValue failures_json(const std::vector<std::string>& failures) {
  JsonValue arr{obs::JsonArray{}};
  for (const std::string& f : failures) arr.push(f);
  return arr;
}

// ------------------------------------------------------------ measure mode

int measure(const Workload& w, double seconds) {
  JsonValue reps{obs::JsonArray{}};
  std::string first_fp;
  JsonValue fingerprint;
  std::uint64_t failed = 0;
  int n = 0;
  const Clock::time_point t0 = Clock::now();
  // Another repetition starts only while it would end nearer to the
  // deadline than stopping now, so a run lasts about S seconds whatever
  // one repetition costs.
  while (n < kMinReps || since(t0) * (1.0 + 0.5 / n) < seconds) {
    Rep rep = run_rep(w, nullptr);
    const std::string fp = rep.fingerprint.dump();
    if (n == 0) {
      first_fp = fp;
      fingerprint = rep.fingerprint;
    } else if (fp != first_fp) {
      rep.failures.push_back("simulated outcome differs from repetition 0");
    }
    if (!rep.failures.empty()) ++failed;
    JsonValue r;
    r.set("setup_s", rep.setup_s);
    r.set("traffic_s", rep.traffic_s);
    JsonValue parts{obs::JsonArray{}};
    for (const double t : rep.traffic_parts_s) parts.push(t);
    r.set("traffic_parts_s", std::move(parts));
    r.set("failures", failures_json(rep.failures));
    reps.push(std::move(r));
    ++n;
  }
  JsonValue out;
  out.set("workload", w.name);
  out.set("mode", "measure");
  out.set("lanes", static_cast<std::uint64_t>(w.deployment.kernel.lanes));
  out.set("reps", std::move(reps));
  out.set("failed", failed);
  out.set("fingerprint", std::move(fingerprint));
  out.set("peak_rss_mb", peak_rss_mb());
  std::cout << out.dump() << std::endl;
  return 0;
}

// -------------------------------------------------------------- trace mode

/// Mean nanoseconds per call of \p op over enough calls to last ~50 ms.
template <typename Op>
double ns_per_op(Op&& op) {
  std::size_t calls = 256;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) op(i);
    const double s = since(t0);
    if (s >= 0.05 || calls >= (std::size_t{1} << 26)) {
      return s * 1e9 / static_cast<double>(calls);
    }
    calls *= 4;
  }
}

struct CryptoProbe {
  double seal_ns = 0.0, open_ns = 0.0, prf_ns = 0.0;
};

/// SealContext::seal/open and prf at the workload's mean message sizes.
CryptoProbe probe_crypto(const crypto::CryptoCounters& cc) {
  const std::size_t seal_bytes =
      cc.seals == 0 ? 24 : static_cast<std::size_t>(cc.sealed_bytes / cc.seals);
  const std::size_t open_bytes =
      cc.opens == 0 ? 56 : static_cast<std::size_t>(cc.opened_bytes / cc.opens);
  crypto::Key128 key{};
  for (std::size_t i = 0; i < key.bytes.size(); ++i) {
    key.bytes[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const crypto::SealContext ctx{key};
  const support::Bytes plain(seal_bytes, 0x5a);
  // The probe opens an authentic envelope of the workload's mean size.
  const std::size_t tag = ctx.seal(0, support::Bytes(1, 0)).size() - 1;
  const support::Bytes inner(open_bytes > tag ? open_bytes - tag : 1, 0xa5);
  const support::Bytes sealed = ctx.seal(7, inner);
  volatile std::size_t sink = 0;
  CryptoProbe p;
  p.seal_ns = ns_per_op([&](std::size_t i) { sink = ctx.seal(i, plain).size(); });
  p.open_ns = ns_per_op([&](std::size_t) {
    sink = ctx.open(7, sealed).has_value() ? 1 : 0;
  });
  p.prf_ns = ns_per_op([&](std::size_t i) {
    sink = crypto::prf_u64(key, i).bytes[0];
  });
  (void)sink;
  return p;
}

/// Simulator::schedule_in + dispatch of a no-op event, with the queue
/// held at the workload's own high-water depth.
double probe_event_ns(std::size_t depth) {
  depth = std::max<std::size_t>(depth, 1);
  constexpr std::uint64_t kEvents = 1 << 19;
  sim::Simulator sim{1};
  support::Xoshiro256 rng{7};
  std::uint64_t fired = 0;
  std::function<void()> step = [&] {
    if (++fired + depth <= kEvents) {
      sim.schedule_in(sim::SimTime::from_ns(1 + static_cast<std::int64_t>(
                                                    rng.next() % 1000000)),
                      [&] { step(); });
    }
  };
  for (std::size_t i = 0; i < depth; ++i) {
    sim.schedule_in(sim::SimTime::from_ns(static_cast<std::int64_t>(i)),
                    [&] { step(); });
  }
  const Clock::time_point t0 = Clock::now();
  sim.run();
  const double s = since(t0);
  return s * 1e9 / static_cast<double>(fired);
}

struct MotionProbe {
  double build_s = 0.0;
  double advance_us = 0.0;
  double patch_us = 0.0;
  double flips = 0.0;
  double scenario_s = 0.0;  ///< host time inside scenario-layer calls
};

/// Bulk-builds a copy of the deployment's topology, then replays
/// \p epochs motion epochs of the spec's model over it: MobilityField::
/// advance, then Topology::apply_displacements with the edge diff.
MotionProbe probe_motion(const core::ProtocolRunner& runner,
                         const scenario::ScenarioSpec& spec,
                         std::uint64_t seed, std::size_t epochs,
                         Tracer& tracer) {
  MotionProbe p;
  const net::Topology& live = runner.network().topology();
  std::vector<net::Vec2> positions(live.positions().begin(),
                                   live.positions().end());
  Stopwatch build{&tracer, "net.topology.from_positions"};
  net::Topology topo = net::Topology::from_positions(positions, live.range());
  p.build_s = build.stop();

  Stopwatch scen{&tracer, "scenario.mobility_probe"};
  scenario::MobilityField field{
      spec.motion, runner.config().side_m, positions,
      support::derive_seed(seed, scenario::kMotionSeedTag)};
  std::vector<net::EdgeChange> diff;
  double advance_s = 0.0, patch_s = 0.0;
  std::uint64_t flips = 0;
  for (std::size_t e = 0; e < epochs; ++e) {
    Clock::time_point t0 = Clock::now();
    field.advance(spec.motion.epoch_s);
    advance_s += since(t0);
    const auto delta = field.displacements();
    diff.clear();
    t0 = Clock::now();
    topo.apply_displacements(delta.ids, delta.positions, &diff);
    patch_s += since(t0);
    flips += diff.size();
  }
  p.scenario_s = scen.stop();
  const double n = static_cast<double>(std::max<std::size_t>(epochs, 1));
  p.advance_us = advance_s * 1e6 / n;
  p.patch_us = patch_s * 1e6 / n;
  p.flips = static_cast<double>(flips) / n;
  return p;
}

struct KernelProbe {
  double busy_s = 0.0, barrier_wait_s = 0.0, imbalance = 0.0;
  std::uint64_t halo_events = 0;
};

KernelProbe read_kernel(core::ProtocolRunner& runner) {
  KernelProbe k;
  const sim::ShardedKernel* kernel = runner.sim().kernel();
  if (kernel == nullptr) return k;
  double max_busy = 0.0;
  for (std::size_t l = 0; l < kernel->lane_count(); ++l) {
    const sim::LaneStats& ls = kernel->lane_stats(l);
    const double busy = static_cast<double>(ls.busy_ns) * 1e-9;
    k.busy_s += busy;
    k.barrier_wait_s += static_cast<double>(ls.barrier_wait_ns) * 1e-9;
    max_busy = std::max(max_busy, busy);
  }
  const double mean = k.busy_s / static_cast<double>(kernel->lane_count());
  k.imbalance = mean > 0.0 ? max_busy / mean : 0.0;
  k.halo_events = kernel->halo_packets();
  return k;
}

/// The host time a workload's main stopwatch reads: set-up on the
/// key-setup workload, the traffic phase on the others.
double primary_s(const Workload& w, const Rep& rep) {
  return w.traffic == Traffic::kReadingRound ? rep.setup_s : rep.traffic_s;
}

int trace(const Workload& w, const std::string& trace_out) {
  // Untraced reference repetition first: the tracing overhead is the
  // traced primary stopwatch minus this one.
  double untraced_s = 0.0;
  std::string untraced_fp;
  {
    const Rep ref = run_rep(w, nullptr);
    untraced_s = primary_s(w, ref);
    untraced_fp = ref.fingerprint.dump();
  }

  const std::string run_id = w.name + "-" + std::to_string(w.seed);
  Tracer tracer{run_id};
  Rep rep = run_rep(w, &tracer);
  const Outcome& o = rep.outcome;
  if (rep.fingerprint.dump() != untraced_fp) {
    rep.failures.push_back("traced simulated outcome differs from untraced");
  }
  core::ProtocolRunner& tr = traffic_runner(rep);
  tr.network().set_audit_sink(nullptr);
  const std::size_t last = w.deployments - 1;

  // ---- per-op probes on the workload's own state, after the timed part
  const int probes = tracer.begin("probes", nullptr);
  const crypto::CryptoCounters& cc = o.crypto;
  Stopwatch crypto_sw{&tracer, "crypto.probe"};
  const CryptoProbe cp = probe_crypto(cc);
  crypto_sw.stop();
  Stopwatch sim_sw{&tracer, "sim.probe"};
  const double event_ns = probe_event_ns(o.queue_high_water);
  sim_sw.stop();

  // The mobility probe replays as many epochs as one deployment moved.
  const std::uint64_t epochs_per_deployment = o.motion_epochs / w.deployments;
  const MotionProbe mp = probe_motion(
      *rep.setup_runner, w.spec, deployment(w, last).seed,
      epochs_per_deployment != 0 ? epochs_per_deployment : kProbeMotionEpochs,
      tracer);

  // The kernel figures: the set-up itself on the sharded workload, else
  // the same deployment's key setup once more on a 2-lane kernel.
  KernelProbe kp = read_kernel(*rep.setup_runner);
  if (rep.setup_runner->sim().kernel() == nullptr) {
    core::RunnerConfig two = deployment(w, last);
    two.kernel.lanes = 2;
    Stopwatch ksw{&tracer, "sim.kernel_probe"};
    core::ProtocolRunner sharded{two};
    center_base_station(sharded);
    sharded.run_key_setup();
    ksw.stop(&sharded);
    kp = read_kernel(sharded);
  }

  // ScenarioEngine::run drives its data planes internally, so their time
  // cannot be split out from outside: time one more second of the spec's
  // traffic on the post-scenario state instead.
  double dataplane_s = tracer.seconds("core.dataplane") +
                       tracer.seconds("core.reading_round");
  if (w.traffic == Traffic::kScenario) {
    core::DataPlaneConfig dp;
    dp.duration_s = 1.0;
    dp.tick_interval_s = w.spec.data.tick_interval_s;
    dp.readings_per_tick = w.spec.data.readings_per_tick;
    dp.reading_bytes = w.spec.data.reading_bytes;
    dp.refresh_interval_s = w.spec.data.refresh_interval_s;
    core::DataPlaneEngine engine{tr, dp};
    Stopwatch dsw{&tracer, "core.dataplane_probe", &tr};
    (void)engine.run();
    dataplane_s = dsw.stop(&tr);
  }
  tracer.end(probes, nullptr);

  // ---- per-layer metrics
  const JsonValue& fp = rep.fingerprint;
  const double total_s = tracer.seconds("workload." + w.name);
  const double events = static_cast<double>(o.events);
  JsonValue pl;

  pl.set("sim.events", events);
  pl.set("sim.events_per_host_s", events / total_s);
  pl.set("sim.queue_high_water", static_cast<std::uint64_t>(o.queue_high_water));
  pl.set("sim.event_ns", event_ns);
  pl.set("sim.kernel.busy_s", kp.busy_s);
  pl.set("sim.kernel.barrier_wait_s", kp.barrier_wait_s);
  pl.set("sim.kernel.lane_imbalance", kp.imbalance);
  pl.set("sim.kernel.halo_events", kp.halo_events);

  const double tx = static_cast<double>(o.tx);
  const double rx = static_cast<double>(o.rx);
  pl.set("net.channel.tx", o.tx);
  pl.set("net.channel.delivered", o.rx);
  pl.set("net.fanout", tx > 0 ? rx / tx : 0.0);
  pl.set("net.pkt.dropped_gone", o.dropped_gone);
  pl.set("net.pkt.tx_gated", o.tx_gated);
  pl.set("net.pkt.dropped_partition", o.dropped_partition);
  pl.set("net.topology.build_s", mp.build_s);
  pl.set("net.topology.patch_us_per_epoch", mp.patch_us);
  pl.set("net.topology.edge_flips_per_epoch", mp.flips);

  const double seals = static_cast<double>(cc.seals);
  const double opens = static_cast<double>(cc.opens);
  const double crypto_est_s = (seals * cp.seal_ns + opens * cp.open_ns +
                               static_cast<double>(cc.prf_calls) * cp.prf_ns) *
                              1e-9;
  pl.set("crypto.seals", cc.seals);
  pl.set("crypto.opens", cc.opens);
  pl.set("crypto.prf_calls", cc.prf_calls);
  pl.set("crypto.opens_per_seal", seals > 0 ? opens / seals : 0.0);
  pl.set("crypto.open_failures", cc.open_failures);
  pl.set("crypto.open_failure_ratio",
         opens > 0 ? static_cast<double>(cc.open_failures) / opens : 0.0);
  pl.set("crypto.seal_ns", cp.seal_ns);
  pl.set("crypto.open_ns", cp.open_ns);
  pl.set("crypto.prf_ns", cp.prf_ns);
  pl.set("crypto.est_s", crypto_est_s);
  pl.set("crypto.share", crypto_est_s / total_s);

  pl.set("wsn.routing_s", rep.routing_s);

  const auto audit_counts = rep.audit->counts_by_kind();
  auto audit_count = [&](obs::AuditKind kind) {
    return audit_counts[static_cast<std::size_t>(kind)];
  };
  pl.set("core.deploy_s", rep.deploy_s);
  pl.set("core.key_setup_s", rep.key_setup_s);
  pl.set("core.dataplane_s", dataplane_s);
  pl.set("core.originated", o.originated);
  pl.set("core.delivered", o.delivered);
  pl.set("core.refresh_rounds", audit_count(obs::AuditKind::kRefreshRound));
  pl.set("core.clusters_evicted",
         audit_count(obs::AuditKind::kEvictionIssued));
  pl.set("core.latency_p50_ms", fp.number_at("latency_p50_ms"));
  pl.set("core.latency_p95_ms", fp.number_at("latency_p95_ms"));
  pl.set("core.bytes_per_node", rep.heap_bytes_per_node);

  // Audit events flow only in the traced run: the sink is attached there.
  const double audit_events = static_cast<double>(rep.audit->total_seen());
  pl.set("obs.audit_events", audit_events);
  pl.set("obs.audit_events_per_sim_s", audit_events / rep.traffic_sim_s);

  const bool scenario = w.traffic == Traffic::kScenario;
  pl.set("scenario.run_s", scenario ? rep.traffic_s : mp.scenario_s);
  pl.set("scenario.motion_epochs", o.motion_epochs);
  pl.set("scenario.joins", o.joins);
  pl.set("scenario.join_success_ratio",
         o.joins == 0 ? 0.0
                      : static_cast<double>(o.join_successes) /
                            static_cast<double>(o.joins));
  pl.set("scenario.departures", o.departures);
  pl.set("scenario.sleeps", o.sleeps);
  pl.set("scenario.wakes", o.wakes);
  pl.set("scenario.mobility.advance_us_per_epoch", mp.advance_us);

  // ---- attribution: count x per-op cost, per layer, over the workload
  // span.  Topology: one bulk build per traffic runner's constructor, and
  // per motion epoch the walkers' advance plus the patch.
  const double epochs = static_cast<double>(o.motion_epochs);
  const double attrib_sim = events * event_ns * 1e-9;
  const double attrib_topo = static_cast<double>(w.deployments) * mp.build_s +
                             epochs * (mp.advance_us + mp.patch_us) * 1e-6;
  pl.set("attrib.total_s", total_s);
  pl.set("attrib.crypto_s", crypto_est_s);
  pl.set("attrib.sim_s", attrib_sim);
  pl.set("attrib.topology_s", attrib_topo);
  pl.set("attrib.unattributed_s",
         total_s - crypto_est_s - attrib_sim - attrib_topo);

  const double traced_s = primary_s(w, rep);
  pl.set("trace.spans", static_cast<std::uint64_t>(tracer.size()));
  pl.set("trace.untraced_s", untraced_s);
  pl.set("trace.overhead_s", traced_s - untraced_s);

  JsonValue out;
  out.set("workload", w.name);
  out.set("mode", "trace");
  out.set("lanes", static_cast<std::uint64_t>(w.deployment.kernel.lanes));
  out.set("reps", 2);
  out.set("failed", rep.failures.empty() ? 0 : 1);
  out.set("failures", failures_json(rep.failures));
  out.set("fingerprint", rep.fingerprint);
  out.set("per_layer", std::move(pl));
  if (!trace_out.empty()) {
    std::ofstream f(trace_out);
    tracer.write_jsonl(f);
    if (!f) {
      std::cerr << "cannot write " << trace_out << '\n';
      return 1;
    }
  }
  std::cout << out.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, mode = "measure", spec_path, trace_out;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::stoull(value);
    else if (flag == "--seconds") seconds = std::stod(value);
    else if (flag == "--mode") mode = value;
    else if (flag == "--spec") spec_path = value;
    else if (flag == "--trace-out") trace_out = value;
    else {
      std::cerr << "unknown flag " << flag << '\n';
      return 2;
    }
  }
  std::ifstream in(spec_path);
  std::stringstream text;
  text << in.rdbuf();
  const auto spec = scenario::ScenarioSpec::parse(text.str());
  if (!in || !spec || !spec->validate().empty()) {
    std::cerr << "cannot read a valid scenario spec from '" << spec_path
              << "'\n";
    return 2;
  }
  try {
    const Workload w = make_workload(workload, seed, *spec);
    if (mode == "measure") return measure(w, seconds);
    if (mode == "trace") return trace(w, trace_out);
    std::cerr << "unknown mode " << mode << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "ldke_perfbench: " << e.what() << '\n';
    return 1;
  }
}

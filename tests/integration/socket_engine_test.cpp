// Loopback integration of the real-socket probe backend: N ProbeAgents
// on 127.0.0.1 ephemeral ports, mapped end-to-end through api::Session.
//
// Everything here is hermetic to loopback (set ENVNWS_TEST_NO_NET=1 to
// skip the suite entirely, e.g. in sandboxes without socket support)
// and deterministic: agents run in fixed-rate mode, so reported
// measurements — and with them MapResult::identity_digest() — are
// reproducible across runs, worker counts and record/replay.
//
// The three ISSUE-5 contracts:
//   (a) record -> replay of a live socket mapping is digest-identical,
//       with the replay running entirely offline (agents stopped);
//   (b) run_batch at probe_jobs in {1, 2, 8} issues the same canonical
//       experiment stream and yields the same digest as sequential;
//   (c) agent death surfaces a distinct, bounded-time Result error —
//       never a hang — and a mapping degrades instead of failing.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "api/envnws.hpp"
#include "env/probe_agent.hpp"
#include "env/socket_probe_engine.hpp"
#include "testing/virtual_scheduler.hpp"

namespace envnws::api {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

bool no_net() {
  const char* flag = std::getenv("ENVNWS_TEST_NO_NET");
  return flag != nullptr && std::string(flag) == "1";
}

#define SKIP_WITHOUT_NET()                                    \
  do {                                                        \
    if (no_net()) GTEST_SKIP() << "ENVNWS_TEST_NO_NET=1 set"; \
  } while (0)

simnet::Scenario make_scenario(const std::string& spec) {
  auto made = ScenarioRegistry::builtin().make(spec);
  EXPECT_TRUE(made.ok()) << spec;
  return std::move(made.value());
}

/// One in-process agent per scenario host, each on an ephemeral
/// loopback port, plus the roster file pointing at them.
class AgentFleet {
 public:
  /// `rate_bps` > 0 puts every agent in deterministic fixed-rate mode.
  void spawn(const simnet::Scenario& scenario, double rate_bps, const std::string& roster_name) {
    for (const simnet::NodeId id : scenario.topology.hosts()) {
      const simnet::Node& node = scenario.topology.node(id);
      env::ProbeAgentConfig config;
      // The mapper probes by the zone-local name (the fqdn for plain
      // hosts) — roster the agent under exactly that.
      config.name = node.fqdn.empty() ? node.name : node.fqdn;
      config.fqdn = node.fqdn;
      config.ip = node.ip.is_zero() ? "127.0.0.1" : node.ip.to_string();
      config.properties = node.properties;
      config.fixed_rate_bps = rate_bps;
      config.io_timeout_s = 20.0;
      agents_.push_back(std::make_unique<env::ProbeAgent>(std::move(config)));
      ASSERT_TRUE(agents_.back()->start().ok()) << node.name;
    }
    roster_path_ = (fs::path(::testing::TempDir()) / roster_name).string();
    std::ofstream out(roster_path_, std::ios::trunc);
    for (const auto& agent : agents_) {
      out << agent->config().name << " 127.0.0.1:" << agent->port() << "\n";
    }
  }

  /// Kill one host's agent (its port stays in the roster: a dead
  /// endpoint, exactly what a crashed sensor looks like).
  void stop_host(const std::string& name) {
    for (auto& agent : agents_) {
      if (agent->config().name == name) agent->stop();
    }
  }

  void stop_all() {
    for (auto& agent : agents_) agent->stop();
  }

  [[nodiscard]] const std::string& roster_path() const { return roster_path_; }
  /// One request to `host`'s agent on a fresh connection, and its reply.
  Result<env::wire::WireMessage> ask(const std::string& host, const std::string& request) const {
    for (const auto& agent : agents_) {
      if (agent->config().name != host) continue;
      auto socket = env::wire::TcpSocket::dial("127.0.0.1", agent->port(), 2.0);
      if (!socket.ok()) return socket.error();
      if (auto sent = env::wire::send_frame(socket.value(), request, 2.0); !sent.ok()) {
        return sent.error();
      }
      env::wire::FrameBuffer buffer;
      return env::wire::recv_message(socket.value(), buffer, 2.0);
    }
    return make_error(ErrorCode::not_found, "no agent named " + host);
  }
  [[nodiscard]] env::wire::AgentRoster roster() const {
    auto loaded = env::wire::AgentRoster::load(roster_path_);
    EXPECT_TRUE(loaded.ok());
    return loaded.value();
  }

 private:
  std::vector<std::unique_ptr<env::ProbeAgent>> agents_;
  std::string roster_path_;
};

/// Socket-backed mapping sessions keep probes fast and deterministic:
/// small payloads, no settle gap (loopback needs none).
void tune_for_loopback(Session& session, int probe_jobs = 1) {
  session.options().mapper.probe_bytes = 64 * 1024;
  session.options().mapper.stabilization_gap_s = 0.0;
  session.options().mapper.probe_jobs = probe_jobs;
}

// --- spec grammar (no sockets involved: parse-time behavior) ----------------

TEST(SocketEngineSpec, RejectsMalformedSocketSpecsAtSetTime) {
  auto scenario = make_scenario("star-switch:4");
  simnet::Network net(simnet::Scenario(scenario).topology);
  Session session(net, scenario);
  // Missing roster file: not_found, eagerly at set time.
  auto missing = session.set_probe_engine_spec("socket:/definitely/not/there.cfg");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::not_found);
  // Malformed roster: the line-numbered parse error surfaces verbatim.
  const std::string bad_roster = (fs::path(::testing::TempDir()) / "bad-roster.cfg").string();
  { std::ofstream(bad_roster) << "h0 127.0.0.1:4000\nh1 127.0.0.1\n"; }
  auto malformed = session.set_probe_engine_spec("socket:" + bad_roster);
  ASSERT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.error().code, ErrorCode::invalid_argument);
  EXPECT_NE(malformed.error().message.find(":2:"), std::string::npos)
      << malformed.error().message;
  // Structurally invalid compositions.
  const std::string ok_roster = (fs::path(::testing::TempDir()) / "ok-roster.cfg").string();
  { std::ofstream(ok_roster) << "h0.lan 127.0.0.1:4000\n"; }
  const std::string empty_roster = (fs::path(::testing::TempDir()) / "empty-roster.cfg").string();
  { std::ofstream(empty_roster) << "# no agents\n"; }
  for (const std::string bad : {
           std::string("socket:"),                           // no roster path
           "socket:" + empty_roster,                         // roster lists no agents
           "replay:/tmp/x.envtrace@socket:" + ok_roster,     // replay is offline
           std::string("replay:/tmp/x.envtrace@sim"),        // ...for any base
           "sim@socket:" + ok_roster,                        // contradictory bases
           "socket:" + ok_roster + "@socket:" + ok_roster,   // two bases
           "@socket:" + ok_roster,                           // decorates nothing
       }) {
    auto status = session.set_probe_engine_spec(bad);
    ASSERT_FALSE(status.ok()) << bad;
    EXPECT_EQ(status.error().code, ErrorCode::invalid_argument) << bad;
  }
  // Valid specs parse without touching any socket.
  for (const std::string good : {
           "socket:" + ok_roster,
           "record:/tmp/socket-spec.envtrace@socket:" + ok_roster,
           "fault:bw#0=fail:timeout@socket:" + ok_roster,
       }) {
    EXPECT_TRUE(session.set_probe_engine_spec(good).ok()) << good;
    EXPECT_EQ(session.probe_engine_spec(), good);
  }
  // And "sim" still restores the default factory afterwards.
  EXPECT_TRUE(session.set_probe_engine_spec("sim").ok());
}

// --- (a) record -> replay ---------------------------------------------------

TEST(SocketEngine, LiveMappingRecordsAGoldenTraceThatReplaysOffline) {
  SKIP_WITHOUT_NET();
  auto scenario = make_scenario("star-switch:8");
  AgentFleet fleet;
  fleet.spawn(scenario, 1e9, "socket-rr.cfg");
  const std::string trace = (fs::path(::testing::TempDir()) / "socket-rr.envtrace").string();

  simnet::Network live_net(simnet::Scenario(scenario).topology);
  Session live(live_net, scenario);
  tune_for_loopback(live);
  ASSERT_TRUE(
      live.set_probe_engine_spec("record:" + trace + "@socket:" + fleet.roster_path()).ok());
  EventLog log;
  live.set_observer(&log);
  ASSERT_TRUE(live.map().ok());
  // Real TCP experiments happened: the mapper measured through agents,
  // not the simulator (the session network carried zero probe flows).
  EXPECT_GT(live.map_result().stats.experiments, 0u);
  EXPECT_GT(live.map_result().stats.bytes_sent, 0);
  const auto& purposes = live_net.stats().by_purpose;
  EXPECT_EQ(purposes.find("env-probe"), purposes.end());
  bool roster_noted = false;
  for (const auto& event : log.events()) {
    roster_noted = roster_noted ||
                   event.detail.find("socket agent roster") != std::string::npos;
  }
  EXPECT_TRUE(roster_noted);

  // The offline half: agents gone, the trace alone reproduces the run.
  fleet.stop_all();
  simnet::Network replay_net(simnet::Scenario(scenario).topology);
  Session replay(replay_net, scenario);
  tune_for_loopback(replay);
  ASSERT_TRUE(replay.set_probe_engine_spec("replay:" + trace).ok());
  ASSERT_TRUE(replay.map().ok());
  EXPECT_EQ(live.map_result().identity_digest(), replay.map_result().identity_digest());

  // The replayed view drives the rest of the pipeline like a live one.
  ASSERT_TRUE(replay.plan().ok());
  EXPECT_FALSE(replay.plan_result().cliques.empty());
}

// --- (b) batched == sequential ----------------------------------------------

TEST(SocketEngine, BatchedMappingIsDigestIdenticalAcrossProbeJobs) {
  SKIP_WITHOUT_NET();
  auto scenario = make_scenario("star-switch:8");
  AgentFleet fleet;
  fleet.spawn(scenario, 1e9, "socket-jobs.cfg");

  std::string baseline_digest;
  std::uint64_t baseline_experiments = 0;
  for (const int jobs : {1, 2, 8}) {
    simnet::Network net(simnet::Scenario(scenario).topology);
    Session session(net, scenario);
    tune_for_loopback(session, jobs);
    ASSERT_TRUE(session.set_probe_engine_spec("socket:" + fleet.roster_path()).ok());
    ASSERT_TRUE(session.map().ok()) << "probe_jobs=" << jobs;
    const env::MapResult& result = session.map_result();
    if (jobs == 1) {
      baseline_digest = result.identity_digest();
      baseline_experiments = result.stats.experiments;
      ASSERT_FALSE(baseline_digest.empty());
    } else {
      // Same canonical experiment stream, same measurements, same
      // digest — the batch only changes WHEN experiments ran.
      EXPECT_EQ(result.identity_digest(), baseline_digest) << "probe_jobs=" << jobs;
      EXPECT_EQ(result.stats.experiments, baseline_experiments);
      EXPECT_GT(result.batch.batches, 0u);
      // A switched star earns genuine schedule savings.
      EXPECT_GT(result.batch.saved_s(), 0.0);
    }
  }
  fleet.stop_all();
}

TEST(SocketEngine, RunBatchKeepsCanonicalOrderAndStatsBitIdentical) {
  SKIP_WITHOUT_NET();
  auto scenario = make_scenario("star-switch:6");
  AgentFleet fleet;
  fleet.spawn(scenario, 4e8, "socket-batch.cfg");
  env::MapperOptions options;
  options.probe_bytes = 64 * 1024;
  options.stabilization_gap_s = 0.0;

  // Three disjoint pairs + one conflicting straggler.
  const std::vector<env::ProbeExperiment> experiments = {
      env::ProbeExperiment::single("h0.lan", "h1.lan"),
      env::ProbeExperiment::single("h2.lan", "h3.lan"),
      env::ProbeExperiment::single("h4.lan", "h0.lan"),  // conflicts with [0]
      env::ProbeExperiment::concurrent({env::BandwidthRequest{"h1.lan", "h2.lan"},
                                        env::BandwidthRequest{"h3.lan", "h4.lan"}}),
  };
  env::SocketProbeEngine sequential(fleet.roster(), options);
  const auto sequential_outcomes = sequential.run_batch(experiments, 1);
  env::SocketProbeEngine batched(fleet.roster(), options);
  const auto batched_outcomes = batched.run_batch(experiments, 8);

  ASSERT_EQ(sequential_outcomes.size(), experiments.size());
  ASSERT_EQ(batched_outcomes.size(), experiments.size());
  for (std::size_t i = 0; i < experiments.size(); ++i) {
    ASSERT_EQ(batched_outcomes[i].results.size(), sequential_outcomes[i].results.size()) << i;
    for (std::size_t r = 0; r < sequential_outcomes[i].results.size(); ++r) {
      ASSERT_TRUE(sequential_outcomes[i].results[r].ok()) << i;
      ASSERT_TRUE(batched_outcomes[i].results[r].ok()) << i;
      // Fixed-rate agents report identical values regardless of real
      // concurrency — canonical order is observable bit for bit.
      EXPECT_EQ(batched_outcomes[i].results[r].value(), sequential_outcomes[i].results[r].value())
          << "experiment " << i << " transfer " << r;
    }
    EXPECT_EQ(batched_outcomes[i].duration_s, sequential_outcomes[i].duration_s) << i;
  }
  // Cumulative engine stats folded canonically: bit-identical too.
  EXPECT_EQ(batched.stats().experiments, sequential.stats().experiments);
  EXPECT_EQ(batched.stats().bytes_sent, sequential.stats().bytes_sent);
  EXPECT_EQ(batched.stats().busy_time_s, sequential.stats().busy_time_s);
  fleet.stop_all();
}

// --- (c) agent death --------------------------------------------------------

TEST(SocketEngine, DeadAndSilentAgentsSurfaceDistinctBoundedErrors) {
  SKIP_WITHOUT_NET();
  // One live agent, one dead endpoint (bound then closed: connection
  // refused), one silent endpoint (accepts, never replies: timeout).
  env::ProbeAgentConfig live_config;
  live_config.name = "alive";
  live_config.fqdn = "alive.lan";
  live_config.fixed_rate_bps = 1e9;
  env::ProbeAgent live(live_config);
  ASSERT_TRUE(live.start().ok());

  std::uint16_t dead_port = 0;
  {
    auto listener = env::wire::TcpListener::listen("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok());
    dead_port = listener.value().port();
  }  // closed: nothing listens here any more
  auto silent = env::wire::TcpListener::listen("127.0.0.1", 0);
  ASSERT_TRUE(silent.ok());

  env::wire::AgentRoster roster;
  roster.agents.push_back(env::wire::AgentEndpoint{"alive", "127.0.0.1", live.port()});
  roster.agents.push_back(env::wire::AgentEndpoint{"dead", "127.0.0.1", dead_port});
  roster.agents.push_back(env::wire::AgentEndpoint{"mute", "127.0.0.1", silent.value().port()});
  env::MapperOptions options;
  options.probe_bytes = 64 * 1024;
  options.stabilization_gap_s = 0.0;
  env::SocketEngineOptions socket_options;
  socket_options.connect_timeout_s = 1.0;
  socket_options.frame_timeout_s = 1.0;
  socket_options.transfer_timeout_s = 1.5;
  env::SocketProbeEngine engine(roster, options, socket_options);

  const auto begin = Clock::now();
  // Dead source agent: connection refused, surfaced as unreachable.
  auto dead_source = engine.bandwidth("dead", "alive");
  ASSERT_FALSE(dead_source.ok());
  EXPECT_EQ(dead_source.error().code, ErrorCode::unreachable);
  EXPECT_NE(dead_source.error().message.find("probe agent 'dead'"), std::string::npos)
      << dead_source.error().message;
  // Dead sink: the live source agent reports its peer as unreachable.
  auto dead_sink = engine.bandwidth("alive", "dead");
  ASSERT_FALSE(dead_sink.ok());
  EXPECT_EQ(dead_sink.error().code, ErrorCode::unreachable) << dead_sink.error().to_string();
  // Absent from the roster entirely: a distinct not_found.
  auto unknown = engine.bandwidth("alive", "ghost");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code, ErrorCode::not_found);
  // Silent agent: accepts, never answers — bounded timeout, not a hang.
  auto mute = engine.lookup("mute");
  ASSERT_FALSE(mute.ok());
  EXPECT_EQ(mute.error().code, ErrorCode::timeout) << mute.error().to_string();
  const double elapsed = std::chrono::duration<double>(Clock::now() - begin).count();
  EXPECT_LT(elapsed, 15.0) << "errors must surface within the configured socket timeouts";
  live.stop();
}

TEST(SocketEngine, MappingDegradesWithWarningsWhenAnAgentDiesMidFleet) {
  SKIP_WITHOUT_NET();
  auto scenario = make_scenario("star-switch:4");
  AgentFleet fleet;
  fleet.spawn(scenario, 1e9, "socket-death.cfg");
  // One member's sensor crashed before the mapping (its roster entry
  // now points at a dead port). The mapper must finish the zone,
  // demoting that host's probes to warnings that NAME the agent.
  fleet.stop_host("h2.lan");

  simnet::Network net(simnet::Scenario(scenario).topology);
  Session session(net, scenario);
  tune_for_loopback(session);
  ASSERT_TRUE(session.set_probe_engine_spec("socket:" + fleet.roster_path()).ok());
  const auto begin = Clock::now();
  ASSERT_TRUE(session.map().ok());
  const double elapsed = std::chrono::duration<double>(Clock::now() - begin).count();
  EXPECT_LT(elapsed, 60.0);
  bool dead_agent_warned = false;
  for (const auto& warning : session.map_result().warnings) {
    dead_agent_warned = dead_agent_warned ||
                        (warning.find("h2") != std::string::npos &&
                         warning.find("probe agent") != std::string::npos);
  }
  EXPECT_TRUE(dead_agent_warned) << "no warning names the dead agent";
  // The surviving hosts still got mapped.
  EXPECT_GT(session.map_result().stats.experiments, 0u);
  fleet.stop_all();
}

/// Kills one fleet host's agent at the first worker-dispatch decision of
/// run_batch — i.e. AFTER the batch was submitted but BEFORE any of its
/// experiments completed — then schedules FIFO. The schedule-exploration
/// seam (engine.set_virtual_scheduler) is what makes "mid-batch" a
/// deterministic instant instead of a sleep-and-hope race.
class AgentKillingScheduler final : public testing::VirtualScheduler {
 public:
  AgentKillingScheduler(AgentFleet& fleet, std::string victim)
      : fleet_(fleet), victim_(std::move(victim)) {}
  [[nodiscard]] bool killed() const { return killed_; }

 protected:
  std::size_t choose(const testing::DecisionPoint& point) override {
    if (!killed_ && point.point == "socket") {
      killed_ = true;
      fleet_.stop_host(victim_);
    }
    return 0;  // FIFO from here: the victim's experiments dispatch later
  }

 private:
  AgentFleet& fleet_;
  std::string victim_;
  bool killed_ = false;
};

TEST(SocketEngine, AgentDeathDuringRunBatchKeepsErrorsInCanonicalOrder) {
  SKIP_WITHOUT_NET();
  auto scenario = make_scenario("star-switch:6");
  AgentFleet fleet;
  fleet.spawn(scenario, 1e9, "socket-midbatch-death.cfg");
  env::MapperOptions options;
  options.probe_bytes = 64 * 1024;
  options.stabilization_gap_s = 0.0;
  env::SocketEngineOptions socket_options;
  socket_options.connect_timeout_s = 1.0;
  socket_options.frame_timeout_s = 1.0;
  socket_options.transfer_timeout_s = 1.5;

  // Experiments 3 and 4 touch h5.lan — the host whose agent dies at the
  // first dispatch decision, before anything has completed.
  const std::vector<env::ProbeExperiment> experiments = {
      env::ProbeExperiment::single("h0.lan", "h1.lan"),
      env::ProbeExperiment::single("h2.lan", "h3.lan"),
      env::ProbeExperiment::single("h0.lan", "h2.lan"),  // conflicts with [0] and [1]
      env::ProbeExperiment::single("h4.lan", "h5.lan"),
      env::ProbeExperiment::concurrent({env::BandwidthRequest{"h5.lan", "h4.lan"},
                                        env::BandwidthRequest{"h1.lan", "h3.lan"}}),
  };

  // Reference run while the whole fleet is alive (fixed-rate agents:
  // values are bit-reproducible across engines and worker counts).
  env::SocketProbeEngine reference(fleet.roster(), options, socket_options);
  const auto healthy = reference.run_batch(experiments, 1);
  ASSERT_EQ(healthy.size(), experiments.size());
  for (const auto& outcome : healthy) {
    for (const auto& result : outcome.results) ASSERT_TRUE(result.ok());
  }

  AgentKillingScheduler killer(fleet, "h5.lan");
  env::SocketProbeEngine engine(fleet.roster(), options, socket_options);
  engine.set_virtual_scheduler(&killer);
  const auto begin = Clock::now();
  const auto outcomes = engine.run_batch(experiments, 3);
  const double elapsed = std::chrono::duration<double>(Clock::now() - begin).count();
  EXPECT_LT(elapsed, 30.0) << "a dead agent must not stall the batch";
  EXPECT_TRUE(killer.killed());
  EXPECT_TRUE(killer.health().ok());

  // Per-experiment results stay in CANONICAL batch order: slot i is
  // experiment i, whether it measured or failed. Experiments that never
  // touch the dead host carry exactly the healthy run's values.
  ASSERT_EQ(outcomes.size(), experiments.size());
  for (const std::size_t i : {0u, 1u, 2u}) {
    ASSERT_EQ(outcomes[i].results.size(), healthy[i].results.size()) << i;
    for (std::size_t r = 0; r < outcomes[i].results.size(); ++r) {
      ASSERT_TRUE(outcomes[i].results[r].ok()) << "experiment " << i;
      EXPECT_EQ(outcomes[i].results[r].value(), healthy[i].results[r].value())
          << "experiment " << i << " transfer " << r;
    }
  }
  // The victim's experiments fail in place — h4->h5 entirely, and only
  // the dead-host transfer of the mixed concurrent experiment.
  ASSERT_EQ(outcomes[3].results.size(), 1u);
  ASSERT_FALSE(outcomes[3].results[0].ok());
  EXPECT_EQ(outcomes[3].results[0].error().code, ErrorCode::unreachable)
      << outcomes[3].results[0].error().to_string();
  ASSERT_EQ(outcomes[4].results.size(), 2u);
  EXPECT_FALSE(outcomes[4].results[0].ok());

  fleet.stop_all();
}

// --- latency + agent introspection ------------------------------------------

TEST(SocketEngine, PingTrainsAndAgentStatsWork) {
  SKIP_WITHOUT_NET();
  auto scenario = make_scenario("star-switch:4");
  AgentFleet fleet;
  fleet.spawn(scenario, 1e9, "socket-ping.cfg");
  env::MapperOptions options;
  options.probe_bytes = 64 * 1024;
  options.stabilization_gap_s = 0.0;
  env::SocketProbeEngine engine(fleet.roster(), options);

  // A PING train: every PONG echoes its sequence number.
  for (std::uint64_t seq = 0; seq < 8; ++seq) {
    auto pong = fleet.ask("h0.lan", "PING seq=" + std::to_string(seq));
    ASSERT_TRUE(pong.ok()) << pong.error().to_string();
    EXPECT_EQ(pong.value().type, "PONG");
    EXPECT_EQ(pong.value().u64("seq").value(), seq);
  }

  ASSERT_TRUE(engine.bandwidth("h0.lan", "h1.lan").ok());
  auto source_stats = fleet.ask("h0.lan", "STATS");
  ASSERT_TRUE(source_stats.ok()) << source_stats.error().to_string();
  EXPECT_EQ(source_stats.value().type, "STATS-OK");
  EXPECT_EQ(source_stats.value().u64("experiments").value(), 1u);
  EXPECT_EQ(source_stats.value().u64("bytes").value(), 64u * 1024u);
  EXPECT_GT(source_stats.value().f64("busy").value(), 0.0);
  // The sink agent sourced nothing.
  auto sink_stats = fleet.ask("h1.lan", "STATS");
  ASSERT_TRUE(sink_stats.ok());
  EXPECT_EQ(sink_stats.value().u64("experiments").value(), 0u);
  fleet.stop_all();
}

// --- connection pool --------------------------------------------------------

TEST(SocketEngine, IdlePoolHoldsTheGlobalLruBound) {
  SKIP_WITHOUT_NET();
  auto scenario = make_scenario("star-switch:6");
  AgentFleet fleet;
  fleet.spawn(scenario, 1e9, "socket-pool.cfg");
  env::MapperOptions options;
  options.probe_bytes = 64 * 1024;
  options.stabilization_gap_s = 0.0;
  env::SocketEngineOptions socket_options;
  socket_options.max_idle_sockets = 2;  // tiny bound so eviction is forced
  env::SocketProbeEngine engine(fleet.roster(), options, socket_options);

  EXPECT_EQ(engine.idle_sockets(), 0u);
  // Probes across 6 hosts open (and release) connections to many agents;
  // with an unbounded per-host pool this would idle 6+ sockets. The
  // global LRU bound must hold after EVERY experiment.
  const std::vector<std::string> hosts = {"h0.lan", "h1.lan", "h2.lan",
                                          "h3.lan", "h4.lan", "h5.lan"};
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    ASSERT_TRUE(engine.lookup(hosts[i]).ok()) << hosts[i];
    EXPECT_LE(engine.idle_sockets(), 2u);
    const auto& from = hosts[i];
    const auto& to = hosts[(i + 1) % hosts.size()];
    ASSERT_TRUE(engine.bandwidth(from, to).ok()) << from << " -> " << to;
    EXPECT_LE(engine.idle_sockets(), 2u);
  }
  // And evicted connections really closed: the pool is at the bound, not
  // above it, yet probing still works (fresh dials replace evictions).
  EXPECT_EQ(engine.idle_sockets(), 2u);
  ASSERT_TRUE(engine.bandwidth("h5.lan", "h0.lan").ok());
  EXPECT_LE(engine.idle_sockets(), 2u);
  fleet.stop_all();
}

}  // namespace
}  // namespace envnws::api

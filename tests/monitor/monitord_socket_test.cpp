// monitord over real sockets: a live loopback agent fleet behind the
// daemon, the query front-end under concurrent client load, and the
// record/replay proof that neither changes what is measured.
//
// Hermetic to 127.0.0.1 (ENVNWS_TEST_NO_NET=1 skips the suite) and
// deterministic: fixed-rate agents make the recorded monitoring session
// reproducible, and the replayed runs assert THE acceptance property —
// the same trace + config produces bit-identical snapshot digests and
// identical drift decisions whether 1 or 8 query clients hammer the
// daemon while it measures.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/envnws.hpp"
#include "common/hash.hpp"
#include "env/probe_agent.hpp"
#include "monitor/daemon.hpp"
#include "monitor/query_server.hpp"

namespace envnws::api {
namespace {

namespace fs = std::filesystem;

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

/// One fixed-rate loopback agent per scenario host (the socket_engine
/// suite's fixture, trimmed to what monitord needs).
class AgentFleet {
 public:
  void spawn(const simnet::Scenario& scenario, const std::string& roster_name) {
    for (const simnet::NodeId id : scenario.topology.hosts()) {
      const simnet::Node& node = scenario.topology.node(id);
      env::ProbeAgentConfig config;
      config.name = node.fqdn.empty() ? node.name : node.fqdn;
      config.fqdn = node.fqdn;
      config.fixed_rate_bps = 1e9;
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

  void stop_all() {
    for (auto& agent : agents_) agent->stop();
  }

  [[nodiscard]] const std::string& roster_path() const { return roster_path_; }

 private:
  std::vector<std::unique_ptr<env::ProbeAgent>> agents_;
  std::string roster_path_;
};

struct MonitordRun {
  std::string digest;
  std::vector<std::string> decisions;
  std::uint64_t measurements = 0;
  std::uint64_t failures = 0;
  std::uint64_t queries_served = 0;
  std::uint64_t client_snapshots_ok = 0;
};

/// Plan under "sim" (identical plans across runs by construction), then
/// monitor `cycles` cycles through `monitor_spec` with `clients` query
/// clients continuously requesting SNAPSHOT while the loop measures.
MonitordRun run_monitord(const std::string& scenario_spec, const std::string& monitor_spec,
                         std::uint64_t cycles, std::size_t clients) {
  MonitordRun run;
  const auto scenario = make_scenario(scenario_spec);
  simnet::Network net(simnet::Scenario(scenario).topology);
  Session session(net, scenario);
  EXPECT_TRUE(session.plan().ok());
  // Loopback probe tuning — recorded and replayed sessions must agree
  // (the trace replays only under the schedule that produced it).
  session.options().mapper.probe_bytes = 64 * 1024;
  session.options().mapper.stabilization_gap_s = 0.0;
  EXPECT_TRUE(session.set_probe_engine_spec(monitor_spec).ok()) << monitor_spec;

  auto made = session.make_monitor({});
  EXPECT_TRUE(made.ok()) << (made.ok() ? "" : made.error().to_string());
  if (!made.ok()) return run;
  auto daemon = std::move(made.value());

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> snapshots_ok{0};
  std::vector<std::thread> load;
  if (clients > 0) {
    EXPECT_TRUE(daemon->start_query_server("127.0.0.1", 0).ok());
    const std::uint16_t port = daemon->query_port();
    for (std::size_t i = 0; i < clients; ++i) {
      load.emplace_back([port, &done, &snapshots_ok] {
        auto client = monitor::QueryClient::connect("127.0.0.1", port);
        if (!client.ok()) return;
        do {  // at least one request even if the run already finished
          if (auto summary = client.value().snapshot(); summary.ok()) {
            EXPECT_FALSE(summary.value().digest.empty());
            snapshots_ok.fetch_add(1);
          }
        } while (!done.load());
      });
    }
  }

  EXPECT_TRUE(daemon->run_cycles(cycles).ok());
  done.store(true);
  for (auto& thread : load) thread.join();

  run.digest = daemon->snapshot()->digest();
  run.decisions = daemon->decision_log();
  run.measurements = daemon->measurements();
  run.failures = daemon->probe_failures();
  run.queries_served = daemon->queries_served();
  run.client_snapshots_ok = snapshots_ok.load();
  return run;
}

TEST(MonitordSocket, RecordedFleetRunReplaysIdenticallyUnderAnyQueryLoad) {
  SKIP_WITHOUT_NET();
  const std::string trace = (fs::path(::testing::TempDir()) / "monitord-fleet.envtrace").string();
  std::remove(trace.c_str());

  AgentFleet fleet;
  fleet.spawn(make_scenario("star-switch:4"), "monitord-fleet-roster.cfg");

  // Record 12 cycles of live socket monitoring (no query load).
  const auto live = run_monitord("star-switch:4",
                                 "record:" + trace + "@socket:" + fleet.roster_path(), 12, 0);
  EXPECT_EQ(live.failures, 0u);
  EXPECT_EQ(live.measurements, 12u);  // star-switch:4: 1 probe/cycle
  ASSERT_TRUE(fs::exists(trace));

  // The fleet is gone: everything below runs with zero live probes.
  fleet.stop_all();

  // Same trace + same config => identical snapshot digests and drift
  // decisions, with 1 and with 8 concurrent query clients hammering
  // SNAPSHOT during the measurement loop.
  const auto lone = run_monitord("star-switch:4", "replay:" + trace, 12, 1);
  const auto crowd = run_monitord("star-switch:4", "replay:" + trace, 12, 8);
  EXPECT_EQ(lone.digest, live.digest);
  EXPECT_EQ(crowd.digest, live.digest);
  EXPECT_EQ(lone.decisions, live.decisions);
  EXPECT_EQ(crowd.decisions, live.decisions);
  EXPECT_EQ(lone.measurements, live.measurements);
  EXPECT_EQ(crowd.measurements, live.measurements);
  // The load was real: clients got served while the daemon measured.
  EXPECT_GT(lone.client_snapshots_ok, 0u);
  EXPECT_GT(crowd.client_snapshots_ok, 0u);
  EXPECT_GE(crowd.queries_served, crowd.client_snapshots_ok);

  std::remove(trace.c_str());
}

TEST(MonitordSocket, BackgroundDaemonServesEightClientsDuringLiveMeasurement) {
  SKIP_WITHOUT_NET();
  AgentFleet fleet;
  const auto scenario = make_scenario("star-switch:4");
  fleet.spawn(scenario, "monitord-live-roster.cfg");

  simnet::Network net(simnet::Scenario(scenario).topology);
  Session session(net, scenario);
  ASSERT_TRUE(session.plan().ok());
  session.options().mapper.probe_bytes = 64 * 1024;
  session.options().mapper.stabilization_gap_s = 0.0;
  ASSERT_TRUE(session.set_probe_engine_spec("socket:" + fleet.roster_path()).ok());

  monitor::MonitorOptions options;
  options.pace = false;  // background loop at full speed for the test
  auto made = session.make_monitor(options);
  ASSERT_TRUE(made.ok()) << made.error().to_string();
  auto daemon = std::move(made.value());
  ASSERT_TRUE(daemon->start_query_server("127.0.0.1", 0).ok());
  const std::uint16_t port = daemon->query_port();

  ASSERT_TRUE(daemon->start().ok());
  EXPECT_TRUE(daemon->running());
  EXPECT_FALSE(daemon->start().ok());  // the loop is singly owned

  // 8 clients fetch snapshots while the daemon probes the live fleet;
  // each must see the version advance (proof it is served DURING
  // measurement, not after).
  std::vector<std::thread> clients;
  std::atomic<std::uint64_t> advanced{0};
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([port, &advanced] {
      auto client = monitor::QueryClient::connect("127.0.0.1", port);
      ASSERT_TRUE(client.ok());
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
      std::uint64_t first_version = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        auto summary = client.value().snapshot();
        ASSERT_TRUE(summary.ok());
        if (first_version == 0) first_version = summary.value().version;
        if (summary.value().version > first_version && first_version > 0) {
          advanced.fetch_add(1);
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  for (auto& thread : clients) thread.join();
  EXPECT_EQ(advanced.load(), 8u);

  daemon->stop();
  EXPECT_FALSE(daemon->running());
  EXPECT_GT(daemon->cycles(), 0u);
  EXPECT_GT(daemon->measurements(), 0u);
  EXPECT_GE(daemon->queries_served(), 16u);

  // Typed QUERY and SERIES round trips against the final state.
  const auto snapshot = daemon->snapshot();
  ASSERT_FALSE(snapshot->pairs.empty());
  const auto& key = snapshot->pairs.front().key;
  auto client = monitor::QueryClient::connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  auto answer = client.value().query(key);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value().latest, snapshot->pairs.front().value);
  auto points = client.value().series(key, 4);
  ASSERT_TRUE(points.ok());
  EXPECT_FALSE(points.value().empty());
  auto unknown = client.value().query(nws::SeriesKey{nws::ResourceKind::bandwidth, "no", "pair"});
  EXPECT_FALSE(unknown.ok());

  daemon.reset();  // stops the query server before the fleet goes away
  fleet.stop_all();
}

TEST(MonitordSocket, QueryClientsReadEachSnapshotsOwnDigestWhileCyclesPublish) {
  // The simulated daemon publishes on one thread while clients ask
  // SNAPSHOT then QUERY on theirs. A SNAPSHOT reply is often a fresh
  // snapshot's first digest read, racing the next publish; every
  // (version, digest) a client saw must be that version's digest.
  SKIP_WITHOUT_NET();
  const auto scenario = make_scenario("star-switch:4");
  simnet::Network net(simnet::Scenario(scenario).topology);
  Session session(net, scenario);
  ASSERT_TRUE(session.set_probe_engine_spec("sim").ok());
  auto made = session.make_monitor(monitor::MonitorOptions{});
  ASSERT_TRUE(made.ok()) << made.error().to_string();
  auto daemon = std::move(made.value());
  ASSERT_TRUE(daemon->run_cycles(20).ok());
  const nws::SeriesKey key = daemon->snapshot()->pairs.front().key;
  std::vector<std::shared_ptr<const monitor::MonitorSnapshot>> published(1);
  daemon->set_observer([&published](const monitor::MonitorEvent& event) {
    if (event.kind == monitor::MonitorEvent::Kind::snapshot_published) {
      published.push_back(event.snapshot);
    }
  });
  ASSERT_TRUE(daemon->start_query_server("127.0.0.1", 0).ok());
  const std::uint16_t port = daemon->query_port();

  constexpr std::uint64_t kCycles = 1500;
  std::atomic<bool> done{false};
  std::atomic<std::size_t> answered{0};  // clients with a first reply
  struct Seen {
    std::uint64_t version = 0;
    std::string digest;
    double forecast = 0.0;
  };
  std::vector<std::vector<Seen>> seen(4);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < seen.size(); ++c) {
    clients.emplace_back([port, &key, &done, &answered, &seen, c] {
      auto client = monitor::QueryClient::connect("127.0.0.1", port);
      ASSERT_TRUE(client.ok());
      while (!done.load()) {
        auto summary = client.value().snapshot();
        ASSERT_TRUE(summary.ok());
        auto answer = client.value().query(key);
        ASSERT_TRUE(answer.ok());
        seen[c].push_back({summary.value().version, summary.value().digest,
                           answer.value().forecast.value});
        if (seen[c].size() == 1) answered.fetch_add(1);
      }
    });
  }
  // Publishing starts once every client is asking.
  while (answered.load() < seen.size()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const Status ran = daemon->run_cycles(kCycles);
  done.store(true);
  for (std::thread& client : clients) client.join();
  ASSERT_TRUE(ran.ok());
  ASSERT_EQ(published.size(), kCycles + 1);

  std::set<std::uint64_t> versions;
  for (const std::vector<Seen>& client : seen) {
    std::uint64_t last_version = 0;
    for (const Seen& reply : client) {
      versions.insert(reply.version);
      ASSERT_GE(reply.version, 20u);
      ASSERT_LE(reply.version, 20 + kCycles);
      EXPECT_GE(reply.version, last_version);  // a client never sees time go back
      last_version = reply.version;
      if (reply.version == 20) continue;  // published before the observer was set
      const auto& snapshot = published[reply.version - 20];
      ASSERT_EQ(snapshot->version, reply.version);
      EXPECT_EQ(reply.digest, snapshot->digest());
      EXPECT_EQ(reply.digest, hash::hex64(hash::fnv1a64(snapshot->render())));
      // The QUERY came after the SNAPSHOT, so it read this snapshot or
      // a later one, which carry the same forecast until the pair is
      // measured again.
      bool matched = false;
      for (std::uint64_t v = reply.version; v <= 20 + kCycles && !matched; ++v) {
        matched = published[v - 20]->find(key)->forecast.value == reply.forecast;
      }
      EXPECT_TRUE(matched) << "v" << reply.version;
    }
  }
  EXPECT_GT(versions.size(), 1u) << "no reply was served while cycles published";
  daemon.reset();
}

TEST(MonitordSocket, SeriesClientRejectsMalformedPoints) {
  SKIP_WITHOUT_NET();
  // A server answering every SERIES with the next canned SERIES-OK.
  const std::vector<std::string> replies = {
      "SERIES-OK count=1 points=1:2junk",  // trailing junk
      "SERIES-OK count=1 points=1:2:3",    // three fields
      "SERIES-OK count=1 points=1e999:2",  // overflow
      "SERIES-OK count=1 points=12",       // no separator
      "SERIES-OK count=2 points=1:2,3:4",  // well formed
  };
  std::atomic<std::size_t> next{0};
  env::wire::FrameServer server(
      [&](const env::wire::WireMessage&, env::wire::FrameServer::Peer&) {
        return replies.at(next.fetch_add(1) % replies.size());
      },
      5.0);
  ASSERT_TRUE(server.start("127.0.0.1", 0).ok());
  auto client = monitor::QueryClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  const nws::SeriesKey key{nws::ResourceKind::bandwidth, "a", "b"};
  for (std::size_t i = 0; i + 1 < replies.size(); ++i) {
    auto points = client.value().series(key);
    ASSERT_FALSE(points.ok()) << replies[i];
    EXPECT_EQ(points.error().code, ErrorCode::protocol) << replies[i];
  }
  auto points = client.value().series(key);
  ASSERT_TRUE(points.ok()) << points.error().to_string();
  ASSERT_EQ(points.value().size(), 2u);
  EXPECT_EQ(points.value()[1].time, 3.0);
  EXPECT_EQ(points.value()[1].value, 4.0);
  server.stop();
}

}  // namespace
}  // namespace envnws::api

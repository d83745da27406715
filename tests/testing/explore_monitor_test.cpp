// Schedule exploration of the monitor daemon: the cycle batch dispatch
// and the store-fold order are VirtualScheduler decisions, so the
// explorer can permute them and assert the PR 6 determinism contract —
// bit-identical snapshot digests, identical drift decision logs and
// identical drift/remap events under EVERY explored interleaving. The
// satellite: drift re-map triggers are identical whether 1 or 8 query
// clients hammer SERIES/QUERY while the daemon measures, with the map
// stage replayed from the committed socket-star-6.envtrace (zero live
// probes beyond the loopback query sockets).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/envnws.hpp"
#include "monitor/daemon.hpp"
#include "monitor/query_server.hpp"
#include "testing/explorer.hpp"

namespace envnws::testing {
namespace {

namespace fs = std::filesystem;

const fs::path kTraceDir = fs::path(ENVNWS_TEST_DATA_DIR) / "traces";

bool no_net() {
  const char* flag = std::getenv("ENVNWS_TEST_NO_NET");
  return flag != nullptr && std::string(flag) == "1";
}

#define SKIP_WITHOUT_NET()                                    \
  do {                                                        \
    if (no_net()) GTEST_SKIP() << "ENVNWS_TEST_NO_NET=1 set"; \
  } while (0)

simnet::Scenario make_scenario(const std::string& spec) {
  auto made = api::ScenarioRegistry::builtin().make(spec);
  EXPECT_TRUE(made.ok()) << spec;
  return std::move(made.value());
}

/// The replay suite's sensitive drift policy (see
/// tests/monitor/monitord_replay_test.cpp for the cycle arithmetic).
monitor::MonitorOptions drift_test_options() {
  monitor::MonitorOptions options;
  options.drift.relative_error_threshold = 0.2;
  options.drift.window = 4;
  options.drift.min_samples = 2;
  options.drift.cooldown_cycles = 30;
  return options;
}

/// Everything the determinism contract covers, comparable with ==.
struct MonitordRun {
  std::string digest;
  std::string render;
  std::vector<std::string> decisions;
  std::uint64_t measurements = 0;
  std::uint64_t failures = 0;
  std::uint64_t remaps = 0;
  std::vector<std::string> drift_events;  ///< "kind@cycle:segment" lines
};

std::vector<std::string> drift_lines(const std::vector<monitor::MonitorEvent>& events) {
  std::vector<std::string> lines;
  for (const auto& event : events) {
    if (event.kind == monitor::MonitorEvent::Kind::drift_detected ||
        event.kind == monitor::MonitorEvent::Kind::remap_started ||
        event.kind == monitor::MonitorEvent::Kind::remap_finished ||
        event.kind == monitor::MonitorEvent::Kind::remap_failed) {
      lines.push_back(std::string(monitor::to_string(event.kind)) + "@" +
                      std::to_string(event.cycle) + ":" + event.segment);
    }
  }
  return lines;
}

/// Plan under "sim", monitor `cycles` cycles through `monitor_spec` with
/// the scheduler (when given) driving batch dispatch and fold order.
MonitordRun run_monitord(const std::string& scenario_spec, const std::string& monitor_spec,
                         std::uint64_t cycles, monitor::MonitorOptions options,
                         VirtualScheduler* scheduler) {
  MonitordRun run;
  const auto scenario = make_scenario(scenario_spec);
  simnet::Network net(simnet::Scenario(scenario).topology);
  api::Session session(net, scenario);
  EXPECT_TRUE(session.plan().ok());
  EXPECT_TRUE(session.set_probe_engine_spec(monitor_spec).ok()) << monitor_spec;

  options.virtual_scheduler = scheduler;
  auto made = session.make_monitor(options);
  EXPECT_TRUE(made.ok()) << (made.ok() ? "" : made.error().to_string());
  if (!made.ok()) return run;
  auto daemon = std::move(made.value());
  std::vector<monitor::MonitorEvent> events;
  daemon->set_observer([&events](const monitor::MonitorEvent& event) { events.push_back(event); });
  EXPECT_TRUE(daemon->run_cycles(cycles).ok());

  const auto snapshot = daemon->snapshot();
  run.digest = snapshot->digest();
  run.render = snapshot->render();
  run.decisions = daemon->decision_log();
  run.measurements = daemon->measurements();
  run.failures = daemon->probe_failures();
  run.remaps = daemon->remaps();
  run.drift_events = drift_lines(events);
  return run;
}

// --- explorer-driven fold/dispatch orderings --------------------------------

TEST(ExploreMonitor, ExhaustiveCycleDispatchAndFoldOrderIsScheduleInvariant) {
  // dumbbell:3x3 schedules 3 probes per cycle, so with probe_jobs=2 both
  // the batch dispatch ("batch") and the store fold ("monitor-record")
  // genuinely branch: 54 dispatch interleavings x 6 fold orders. One
  // cycle keeps that product small enough to enumerate COMPLETELY.
  monitor::MonitorOptions options;
  options.probe_jobs = 2;
  FifoScheduler fifo;
  const auto baseline = run_monitord("dumbbell:3x3", "sim", 1, options, &fifo);
  ASSERT_FALSE(baseline.digest.empty());
  EXPECT_EQ(baseline.measurements, 3u);

  // The seam is inert when unset: production behavior is the baseline.
  const auto production = run_monitord("dumbbell:3x3", "sim", 1, options, nullptr);
  EXPECT_EQ(production.digest, baseline.digest);
  EXPECT_EQ(production.render, baseline.render);
  EXPECT_EQ(production.decisions, baseline.decisions);

  const ExploreScenario run = [&](VirtualScheduler& scheduler) {
    const auto permuted = run_monitord("dumbbell:3x3", "sim", 1, options, &scheduler);
    if (permuted.digest != baseline.digest || permuted.render != baseline.render) {
      return Status(make_error(ErrorCode::internal, "snapshot digest diverged"));
    }
    if (permuted.decisions != baseline.decisions) {
      return Status(make_error(ErrorCode::internal, "decision log diverged"));
    }
    if (permuted.measurements != baseline.measurements || permuted.failures != 0) {
      return Status(make_error(ErrorCode::internal, "measurements were lost or duplicated"));
    }
    return scheduler.health();
  };

  Explorer explorer;
  const auto result = explorer.explore_exhaustive(run);
  EXPECT_TRUE(result.ok()) << result.failure->message;
  EXPECT_TRUE(result.exhaustive);
  EXPECT_GT(result.schedules, 25u) << "dispatch and fold order must actually branch";
}

TEST(ExploreMonitor, DriftRunSurvivesRandomSchedulesWithIdenticalDecisions) {
  // The full PR 6 acceptance scenario — sustained bandwidth shift, drift
  // detection at cycle 21, one incremental re-map of router-right.lan —
  // under random interleavings of dispatch and fold order. The drift
  // verdicts, the decision log and the published snapshot must not move.
  auto options = drift_test_options();
  options.probe_jobs = 2;
  const std::string spec = "fault:bw#61=scale:0.35@sim";
  FifoScheduler fifo;
  const auto baseline = run_monitord("dumbbell:3x3", spec, 30, options, &fifo);
  ASSERT_EQ(baseline.remaps, 1u);
  ASSERT_FALSE(baseline.drift_events.empty());

  const ExploreScenario run = [&](VirtualScheduler& scheduler) {
    const auto permuted = run_monitord("dumbbell:3x3", spec, 30, options, &scheduler);
    if (permuted.digest != baseline.digest || permuted.render != baseline.render) {
      return Status(make_error(ErrorCode::internal, "snapshot digest diverged"));
    }
    if (permuted.decisions != baseline.decisions) {
      return Status(make_error(ErrorCode::internal, "drift decision log diverged"));
    }
    if (permuted.drift_events != baseline.drift_events || permuted.remaps != baseline.remaps) {
      return Status(make_error(ErrorCode::internal, "drift/remap events diverged"));
    }
    return scheduler.health();
  };

  ExploreOptions explore;
  explore.random_schedules = 10;  // 30 cycles x (dispatch + fold) decisions each
  Explorer explorer(explore);
  const auto result = explorer.explore_random(run);
  EXPECT_TRUE(result.ok()) << result.failure->message;
  EXPECT_EQ(result.schedules, explore.random_schedules);
}

// --- the query-load satellite ----------------------------------------------

/// Map from the committed socket trace, then monitor through `spec` with
/// `clients` loopback query clients continuously issuing SERIES + QUERY
/// for `keys` (gathered from a previous run's snapshot) while the
/// daemon measures.
MonitordRun run_traced_monitord(const std::string& spec, std::uint64_t cycles,
                                std::size_t clients, const std::vector<nws::SeriesKey>& keys,
                                std::vector<nws::SeriesKey>* keys_out = nullptr,
                                std::uint64_t* sweep_cycles_out = nullptr) {
  MonitordRun run;
  const fs::path trace = kTraceDir / "socket-star-6.envtrace";
  EXPECT_TRUE(fs::exists(trace)) << trace;
  const auto scenario = make_scenario("star-switch:6");
  simnet::Network net(simnet::Scenario(scenario).topology);
  api::Session session(net, scenario);
  // The committed recording ran with loopback tuning (see
  // tests/env/trace_engine_test.cpp); strict replay needs the same
  // probe schedule.
  session.options().mapper.probe_bytes = 64 * 1024;
  session.options().mapper.stabilization_gap_s = 0.0;
  session.options().mapper.probe_jobs = 8;
  EXPECT_TRUE(session.set_probe_engine_spec("replay:" + trace.string()).ok());
  EXPECT_TRUE(session.plan().ok());
  EXPECT_TRUE(session.set_probe_engine_spec(spec).ok()) << spec;

  auto made = session.make_monitor(drift_test_options());
  EXPECT_TRUE(made.ok()) << (made.ok() ? "" : made.error().to_string());
  if (!made.ok()) return run;
  auto daemon = std::move(made.value());
  std::vector<monitor::MonitorEvent> events;
  daemon->set_observer([&events](const monitor::MonitorEvent& event) { events.push_back(event); });

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answers{0};
  std::vector<std::thread> load;
  if (clients > 0) {
    EXPECT_TRUE(daemon->start_query_server("127.0.0.1", 0).ok());
    const std::uint16_t port = daemon->query_port();
    for (std::size_t i = 0; i < clients; ++i) {
      load.emplace_back([port, &done, &answers, &keys] {
        auto client = monitor::QueryClient::connect("127.0.0.1", port);
        if (!client.ok()) return;
        do {  // at least one sweep even if the run already finished
          if (auto summary = client.value().snapshot(); summary.ok()) answers.fetch_add(1);
          for (const auto& key : keys) {
            // Early cycles may not have measured the pair yet; errors
            // are part of the load, not a test failure.
            if (auto points = client.value().series(key, 4); points.ok()) answers.fetch_add(1);
            if (auto answer = client.value().query(key); answer.ok()) answers.fetch_add(1);
          }
        } while (!done.load());
      });
    }
  }

  EXPECT_TRUE(daemon->run_cycles(cycles).ok());
  done.store(true);
  for (auto& thread : load) thread.join();
  if (clients > 0) EXPECT_GT(answers.load(), 0u);

  if (keys_out != nullptr) {
    keys_out->clear();
    for (const auto& pair : daemon->snapshot()->pairs) keys_out->push_back(pair.key);
  }
  if (sweep_cycles_out != nullptr) {
    // One clique (star-switch): a sweep visits each of its pairs once.
    const auto& scheduler = daemon->scheduler();
    *sweep_cycles_out = (scheduler.pairs_total() + scheduler.probes_per_cycle() - 1) /
                        scheduler.probes_per_cycle();
  }
  run.digest = daemon->snapshot()->digest();
  run.render = daemon->snapshot()->render();
  run.decisions = daemon->decision_log();
  run.measurements = daemon->measurements();
  run.failures = daemon->probe_failures();
  run.remaps = daemon->remaps();
  run.drift_events = drift_lines(events);
  return run;
}

TEST(ExploreMonitor, DriftRemapTriggersAreIdenticalUnderOneVersusEightSeriesClients) {
  SKIP_WITHOUT_NET();
  // Probes per cycle and the full-sweep length, measured instead of
  // assumed (star-switch plans one clique, but the rotation arithmetic
  // below depends on both exactly).
  std::vector<nws::SeriesKey> keys;
  std::uint64_t sweep = 0;
  const auto probe = run_traced_monitord("sim", 1, 0, {}, &keys, &sweep);
  ASSERT_EQ(probe.failures, 0u);
  ASSERT_FALSE(keys.empty());
  const std::uint64_t per_cycle = probe.measurements;
  ASSERT_GE(per_cycle, 1u);
  ASSERT_GE(sweep, 1u);

  // A sustained shift. A rotating pair's first visit only trains its
  // forecaster; the visit one sweep later records its first (clean)
  // error sample. Scaling every bandwidth probe from cycle 2*sweep on
  // makes each pair's THIRD visit the drifted one — two samples in the
  // window, both sides of min_samples satisfied — so the detector trips
  // within the first scaled cycles and re-maps the star segment.
  const std::uint64_t start = 2 * sweep;
  const std::uint64_t cycles = start + 5;
  std::string rules;
  for (std::uint64_t i = start * per_cycle; i < cycles * per_cycle; ++i) {
    if (!rules.empty()) rules += ",";
    rules += "bw#" + std::to_string(i) + "=scale:0.35";
  }
  const std::string spec = "fault:" + rules + "@sim";

  const auto lone = run_traced_monitord(spec, cycles, 1, keys);
  const auto crowd = run_traced_monitord(spec, cycles, 8, keys);

  // The satellite assertion: the query load — 1 client or 8 hammering
  // SERIES/SNAPSHOT while the daemon measures and re-maps — changes
  // NOTHING about what was measured or decided.
  EXPECT_GE(lone.remaps, 1u) << "the drift re-map never triggered (vacuous run)";
  EXPECT_EQ(crowd.remaps, lone.remaps);
  EXPECT_EQ(crowd.digest, lone.digest);
  EXPECT_EQ(crowd.render, lone.render);
  EXPECT_EQ(crowd.decisions, lone.decisions);
  EXPECT_EQ(crowd.drift_events, lone.drift_events);
  EXPECT_EQ(crowd.measurements, lone.measurements);
  ASSERT_FALSE(lone.drift_events.empty());
}

}  // namespace
}  // namespace envnws::testing

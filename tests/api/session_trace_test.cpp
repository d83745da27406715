// api::Session probe-engine spec strings: record:/replay:/replay-lenient:/
// fault: wiring, the per-zone trace files of concurrent mapping, and the
// distinct trace-exhausted failure of map() (the error carries the
// offending experiment index — a half-replayed view must never pass as a
// successful mapping).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "api/envnws.hpp"
#include "env/env_tree.hpp"
#include "env/trace_probe_engine.hpp"

namespace envnws::api {
namespace {

namespace fs = std::filesystem;

simnet::Scenario make_scenario(const std::string& spec) {
  auto made = ScenarioRegistry::builtin().make(spec);
  EXPECT_TRUE(made.ok()) << spec;
  return std::move(made.value());
}

void expect_identical(const env::MapResult& a, const env::MapResult& b) {
  // The one definition of "bit-identical" (stats at full precision,
  // grid, views, zones); a mismatch diffs the full digests.
  EXPECT_EQ(a.identity_digest(), b.identity_digest());
}

TEST(SessionProbeSpec, RejectsMalformedSpecs) {
  auto scenario = make_scenario("dumbbell");
  simnet::Network net(simnet::Scenario(scenario).topology);
  Session session(net, scenario);
  // The fault specs include out-of-range / wrapping counters: they must
  // come back as Result errors, never as exceptions escaping the call.
  for (const char* bad : {"teleport:/tmp/x", "record:", "replay:", "fault:", "fault:bw#1=explode",
                          "fault:bw#huge=fail:timeout", "fault:bw#-1=fail",
                          "fault:bw#99999999999999999999999=fail:timeout"}) {
    auto status = session.set_probe_engine_spec(bad);
    ASSERT_FALSE(status.ok()) << bad;
    EXPECT_EQ(status.error().code, ErrorCode::invalid_argument) << bad;
  }
  // A replay of a file that does not exist fails eagerly, at set time.
  auto missing = session.set_probe_engine_spec("replay:/definitely/not/there.envtrace");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::not_found);
  // "sim" and the empty spec restore the default factory.
  EXPECT_TRUE(session.set_probe_engine_spec("sim").ok());
  EXPECT_EQ(session.probe_engine_spec(), "sim");
}

TEST(SessionProbeSpec, RecordThenReplayReproducesTheMappingWithZeroProbes) {
  const std::string path = (fs::path(::testing::TempDir()) / "session-rr.envtrace").string();
  auto scenario = make_scenario("two-cluster:3");

  simnet::Network record_net(simnet::Scenario(scenario).topology);
  Session recorder(record_net, scenario);
  EventLog record_log;
  recorder.set_observer(&record_log);
  ASSERT_TRUE(recorder.set_probe_engine_spec("record:" + path).ok());
  ASSERT_TRUE(recorder.map().ok());
  bool noted = false;
  for (const auto& event : record_log.events()) {
    noted = noted || event.detail.find("probe trace recorded to") != std::string::npos;
  }
  EXPECT_TRUE(noted);

  simnet::Network replay_net(simnet::Scenario(scenario).topology);
  Session replayer(replay_net, scenario);
  ASSERT_TRUE(replayer.set_probe_engine_spec("replay:" + path).ok());
  ASSERT_TRUE(replayer.map().ok());
  expect_identical(recorder.map_result(), replayer.map_result());
  // The replay session's network carried zero probe flows.
  const auto& purposes = replay_net.stats().by_purpose;
  EXPECT_EQ(purposes.find("env-probe"), purposes.end());

  // The replayed view drives the rest of the pipeline like a live one.
  ASSERT_TRUE(replayer.plan().ok());
  ASSERT_TRUE(replayer.validate().ok());
  EXPECT_TRUE(replayer.validation().complete);
}

TEST(SessionProbeSpec, ExhaustedReplayFailsMapWithTheExperimentIndex) {
  const std::string full_path = (fs::path(::testing::TempDir()) / "session-full.envtrace").string();
  const std::string cut_path = (fs::path(::testing::TempDir()) / "session-cut.envtrace").string();
  auto scenario = make_scenario("dumbbell:3x3@100/10");

  simnet::Network record_net(simnet::Scenario(scenario).topology);
  Session recorder(record_net, scenario);
  ASSERT_TRUE(recorder.set_probe_engine_spec("record:" + full_path).ok());
  ASSERT_TRUE(recorder.map().ok());

  // Cut the trace short mid-mapping and replay it strictly.
  auto trace = env::ProbeTrace::load(full_path);
  ASSERT_TRUE(trace.ok());
  const std::size_t keep = trace.value().records.size() / 2;
  trace.value().records.resize(keep);
  std::ofstream(cut_path, std::ios::trunc) << trace.value().to_string();

  simnet::Network replay_net(simnet::Scenario(scenario).topology);
  Session replayer(replay_net, scenario);
  EventLog log;
  replayer.set_observer(&log);
  ASSERT_TRUE(replayer.set_probe_engine_spec("replay:" + cut_path).ok());
  auto status = replayer.map();
  ASSERT_FALSE(status.ok());
  // Distinct, indexed failure — not a generic mapping error.
  EXPECT_EQ(status.error().code, ErrorCode::protocol);
  EXPECT_NE(status.error().message.find("exhausted at experiment " + std::to_string(keep)),
            std::string::npos)
      << status.error().message;
  EXPECT_EQ(replayer.render(), "");  // no map stage output survives
  ASSERT_FALSE(log.events().empty());
  const Event& last = log.events().back();
  EXPECT_EQ(last.kind, Event::Kind::stage_failed);
  EXPECT_NE(last.detail.find("exhausted"), std::string::npos);

  // The lenient mode maps the same truncated trace to completion by
  // falling back to the simulator for the missing tail...
  simnet::Network lenient_net(simnet::Scenario(scenario).topology);
  Session lenient(lenient_net, scenario);
  ASSERT_TRUE(lenient.set_probe_engine_spec("replay-lenient:" + cut_path).ok());
  ASSERT_TRUE(lenient.map().ok());
  // ...reproducing the live view (the sim is deterministic), though the
  // fallback probes now show up as live traffic.
  EXPECT_EQ(env::render_effective(lenient.map_result().root),
            env::render_effective(recorder.map_result().root));
}

TEST(SessionProbeSpec, ThreadedRecordingWritesAndReplaysPerZoneTraces) {
  const std::string path = (fs::path(::testing::TempDir()) / "session-zones.envtrace").string();
  auto scenario = make_scenario("multi-firewall:2x2");

  // Live parallel mapping, recorded: one trace file per firewall zone.
  simnet::Network record_net(simnet::Scenario(scenario).topology);
  Session recorder(record_net, scenario);
  recorder.options().mapper.map_threads = 3;
  ASSERT_TRUE(recorder.set_probe_engine_spec("record:" + path).ok());
  ASSERT_TRUE(recorder.map().ok());
  const std::size_t zones = recorder.map_result().zones.size();
  ASSERT_EQ(zones, 3u);
  for (std::size_t z = 0; z < zones; ++z) {
    EXPECT_TRUE(fs::exists(env::zone_trace_path(path, z))) << z;
  }

  // Replay with the same thread mode: bit-identical, zero live probes.
  simnet::Network replay_net(simnet::Scenario(scenario).topology);
  Session replayer(replay_net, scenario);
  replayer.options().mapper.map_threads = 3;
  ASSERT_TRUE(replayer.set_probe_engine_spec("replay:" + path).ok());
  ASSERT_TRUE(replayer.map().ok());
  expect_identical(recorder.map_result(), replayer.map_result());
  const auto& purposes = replay_net.stats().by_purpose;
  EXPECT_EQ(purposes.find("env-probe"), purposes.end());

  // A per-zone recording cannot replay sequentially: say so, loudly.
  simnet::Network seq_net(simnet::Scenario(scenario).topology);
  Session sequential(seq_net, scenario);
  ASSERT_TRUE(sequential.set_probe_engine_spec("replay:" + path).ok());
  auto status = sequential.map();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("per-zone"), std::string::npos)
      << status.error().message;
}

TEST(SessionProbeSpec, ThreadedFaultSpecMatchesTheSequentialRun) {
  // Every zone engine gets its own fault decorator; a selector that
  // matches every experiment of a kind perturbs the same experiments as
  // the one sequential decorator does.
  auto scenario = make_scenario("multi-firewall:2x2");
  std::map<int, env::MapResult> results;
  for (const int threads : {1, 3}) {
    simnet::Network net(simnet::Scenario(scenario).topology);
    Session session(net, scenario);
    session.options().mapper.map_threads = threads;
    ASSERT_TRUE(session.set_probe_engine_spec("fault:cbw*=scale:0.5").ok());
    ASSERT_TRUE(session.map().ok()) << "map_threads=" << threads;
    results[threads] = session.map_result();
  }
  EXPECT_EQ(env::render_effective(results[3].root), env::render_effective(results[1].root));
  EXPECT_EQ(results[3].warnings, results[1].warnings);

  // The faults really were injected: halved concurrent transfers change
  // the view a clean run derives.
  simnet::Network clean_net(simnet::Scenario(scenario).topology);
  Session clean(clean_net, scenario);
  ASSERT_TRUE(clean.map().ok());
  EXPECT_NE(env::render_effective(results[3].root), env::render_effective(clean.map_result().root));
}

TEST(SessionProbeSpec, ThreadedLenientReplayFallsBackOnTheZoneReplica) {
  const std::string path = (fs::path(::testing::TempDir()) / "session-lenient.envtrace").string();
  auto scenario = make_scenario("multi-firewall:2x2");

  simnet::Network record_net(simnet::Scenario(scenario).topology);
  Session recorder(record_net, scenario);
  recorder.options().mapper.map_threads = 3;
  ASSERT_TRUE(recorder.set_probe_engine_spec("record:" + path).ok());
  ASSERT_TRUE(recorder.map().ok());

  // Cut zone 1's file in half.
  const std::string zone1 = env::zone_trace_path(path, 1);
  auto trace = env::ProbeTrace::load(zone1);
  ASSERT_TRUE(trace.ok());
  ASSERT_GT(trace.value().records.size(), 1u);
  trace.value().records.resize(trace.value().records.size() / 2);
  std::ofstream(zone1, std::ios::trunc) << trace.value().to_string();

  simnet::Network replay_net(simnet::Scenario(scenario).topology);
  Session replayer(replay_net, scenario);
  replayer.options().mapper.map_threads = 3;
  ASSERT_TRUE(replayer.set_probe_engine_spec("replay-lenient:" + path).ok());
  auto status = replayer.map();
  ASSERT_TRUE(status.ok()) << status.error().to_string();
  EXPECT_EQ(env::render_effective(replayer.map_result().root),
            env::render_effective(recorder.map_result().root));
  // The missing tail was probed on zone 1's private replica, never on
  // the session's own network.
  const auto& purposes = replay_net.stats().by_purpose;
  EXPECT_EQ(purposes.find("env-probe"), purposes.end());
}

TEST(SessionProbeSpec, ReRecordingScrubsStaleTraceFilesAtThePath) {
  const std::string path = (fs::path(::testing::TempDir()) / "session-scrub.envtrace").string();
  auto scenario = make_scenario("multi-firewall:2x2");

  // Sequential recording first: the single root file.
  simnet::Network seq_net(simnet::Scenario(scenario).topology);
  Session sequential(seq_net, scenario);
  ASSERT_TRUE(sequential.set_probe_engine_spec("record:" + path).ok());
  ASSERT_TRUE(sequential.map().ok());
  ASSERT_TRUE(fs::exists(path));

  // Re-record the same path threaded: the stale root file must go — a
  // later sequential replay would otherwise silently replay it as truth.
  simnet::Network par_net(simnet::Scenario(scenario).topology);
  Session parallel(par_net, scenario);
  parallel.options().mapper.map_threads = 3;
  ASSERT_TRUE(parallel.set_probe_engine_spec("record:" + path).ok());
  ASSERT_TRUE(parallel.map().ok());
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(env::zone_trace_path(path, 2)));

  // And back: a sequential re-record scrubs the stale per-zone files.
  simnet::Network again_net(simnet::Scenario(scenario).topology);
  Session again(again_net, scenario);
  ASSERT_TRUE(again.set_probe_engine_spec("record:" + path).ok());
  ASSERT_TRUE(again.map().ok());
  EXPECT_TRUE(fs::exists(path));
  for (std::size_t z = 0; z < 3; ++z) {
    EXPECT_FALSE(fs::exists(env::zone_trace_path(path, z))) << z;
  }
}

TEST(SessionProbeSpec, TraceAndFaultSpecsBypassThePersistentMapCache) {
  const fs::path dir = fs::path(::testing::TempDir()) / "session-trace-cache";
  fs::remove_all(dir);
  const std::string path = (fs::path(::testing::TempDir()) / "session-cache.envtrace").string();
  fs::remove(path);
  auto scenario = make_scenario("two-cluster:2");

  // Warm the cache with a clean run.
  simnet::Network warm_net(simnet::Scenario(scenario).topology);
  Session warm(warm_net, scenario);
  warm.set_map_cache(dir.string());
  ASSERT_TRUE(warm.map().ok());
  ASSERT_TRUE(warm.map_result().warnings.empty());

  // record: must really probe and really write, cache hit or not.
  simnet::Network record_net(simnet::Scenario(scenario).topology);
  Session recorder(record_net, scenario);
  recorder.set_map_cache(dir.string());
  ASSERT_TRUE(recorder.set_probe_engine_spec("record:" + path).ok());
  ASSERT_TRUE(recorder.map().ok());
  EXPECT_GT(recorder.map_result().stats.experiments, 0u);
  EXPECT_TRUE(fs::exists(path));

  // fault: must not poison the cache entry with its perturbed result...
  simnet::Network fault_net(simnet::Scenario(scenario).topology);
  Session faulty(fault_net, scenario);
  faulty.set_map_cache(dir.string());
  ASSERT_TRUE(faulty.set_probe_engine_spec("fault:bw#0=fail:timeout").ok());
  ASSERT_TRUE(faulty.map().ok());
  ASSERT_FALSE(faulty.map_result().warnings.empty());

  // ...so a later clean session still reloads the clean mapping.
  simnet::Network clean_net(simnet::Scenario(scenario).topology);
  Session clean(clean_net, scenario);
  clean.set_map_cache(dir.string());
  ASSERT_TRUE(clean.map().ok());
  EXPECT_EQ(clean.map_result().stats.experiments, 0u);  // cache hit
  EXPECT_TRUE(clean.map_result().warnings.empty());
  EXPECT_EQ(clean.map_result().grid.to_string(), warm.map_result().grid.to_string());
}

TEST(SessionProbeSpec, FaultSpecInjectsFailuresIntoTheMapping) {
  auto scenario = make_scenario("star-switch:5@100");

  simnet::Network live_net(simnet::Scenario(scenario).topology);
  Session live(live_net, scenario);
  ASSERT_TRUE(live.map().ok());
  ASSERT_TRUE(live.map_result().warnings.empty());

  simnet::Network fault_net(simnet::Scenario(scenario).topology);
  Session faulty(fault_net, scenario);
  ASSERT_TRUE(faulty.set_probe_engine_spec("fault:bw#0=fail:timeout").ok());
  ASSERT_TRUE(faulty.map().ok());
  // Exactly the selected experiment failed; the mapper degraded it to a
  // warning naming the injected fault.
  ASSERT_FALSE(faulty.map_result().warnings.empty());
  EXPECT_NE(faulty.map_result().warnings.front().find("injected fault"), std::string::npos)
      << faulty.map_result().warnings.front();
  EXPECT_LT(faulty.map_result().stats.experiments, live.map_result().stats.experiments + 1);
}

}  // namespace
}  // namespace envnws::api

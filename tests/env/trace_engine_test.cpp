// The probe-trace subsystem: record/replay round-trips at the engine
// level, strict-mode violations (divergence, exhaustion), lenient
// fallback, fault-injection rules — and the golden-trace regression
// suite: replaying the committed traces under tests/data/traces/ must
// reproduce the live simulator MapResult bit-for-bit with ZERO simulator
// probes executed. A golden failure here usually means the mapper's
// probe schedule changed; see docs/TESTING.md for the re-record workflow
// (examples/record_trace).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "api/envnws.hpp"
#include "env/env_tree.hpp"
#include "env/fault_probe_engine.hpp"
#include "env/trace_probe_engine.hpp"

namespace envnws::env {
namespace {

namespace fs = std::filesystem;

const fs::path kTraceDir = fs::path(ENVNWS_TEST_DATA_DIR) / "traces";

/// Deterministic canned observation source for engine-level tests;
/// exercises the awkward serialization corners (empty fqdn, spaces in
/// property values, failed hops, scripted errors).
class CannedEngine final : public ProbeEngine {
 public:
  Result<HostIdentity> lookup(const std::string& hostname) override {
    ++calls_;
    if (hostname == "missing") {
      return make_error(ErrorCode::not_found, "no DNS entry for " + hostname);
    }
    HostIdentity identity;
    identity.fqdn = hostname == "bare" ? "" : hostname + ".lab";
    identity.ip = "10.1.0." + std::to_string(calls_);
    identity.properties["os"] = "Debian GNU/Linux 12 (bookworm)";
    return identity;
  }
  Result<std::vector<TraceHop>> traceroute(const std::string& from,
                                           const std::string& target) override {
    ++calls_;
    if (from == "dead") return make_error(ErrorCode::host_down, from + " is off");
    (void)target;
    return std::vector<TraceHop>{TraceHop{"10.1.0.254", "gw.lab", true}, TraceHop{"*", "", false}};
  }
  Result<double> bandwidth(const std::string& from, const std::string& to) override {
    ++calls_;
    if (to == "unreachable") return make_error(ErrorCode::unreachable, from + " -/-> " + to);
    return 1.0e6 * static_cast<double>(calls_) + 0.125;
  }
  std::vector<Result<double>> concurrent_bandwidth(
      const std::vector<BandwidthRequest>& requests) override {
    ++calls_;
    std::vector<Result<double>> out;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].from == "dead") {
        out.push_back(make_error(ErrorCode::host_down, "dead is off"));
      } else {
        out.push_back(5.0e5 * static_cast<double>(calls_) + static_cast<double>(i));
      }
    }
    return out;
  }
  [[nodiscard]] ProbeStats stats() const override {
    return ProbeStats{calls_, static_cast<std::int64_t>(calls_) * 10,
                      0.5 * static_cast<double>(calls_)};
  }

 private:
  std::uint64_t calls_ = 0;
};

/// Drive a fixed request sequence and collect printable outcomes.
std::vector<std::string> drive(ProbeEngine& engine) {
  std::vector<std::string> log;
  const auto render = [&log](const Result<double>& r) {
    log.push_back(r.ok() ? std::to_string(r.value()) : r.error().to_string());
  };
  auto id = engine.lookup("alpha");
  log.push_back(id.ok() ? id.value().fqdn + "|" + id.value().ip + "|" +
                              id.value().properties.at("os")
                        : id.error().to_string());
  auto bare = engine.lookup("bare");
  log.push_back(bare.ok() ? "fqdn:'" + bare.value().fqdn + "'" : bare.error().to_string());
  auto miss = engine.lookup("missing");
  log.push_back(miss.ok() ? miss.value().fqdn : miss.error().to_string());
  auto hops = engine.traceroute("alpha", "gw");
  if (hops.ok()) {
    for (const auto& hop : hops.value()) {
      log.push_back(hop.ip + "/" + hop.name + "/" + (hop.responded ? "up" : "down"));
    }
  } else {
    log.push_back(hops.error().to_string());
  }
  render(engine.bandwidth("alpha", "beta"));
  render(engine.bandwidth("alpha", "unreachable"));
  for (const auto& r : engine.concurrent_bandwidth(
           {BandwidthRequest{"alpha", "beta"}, BandwidthRequest{"dead", "beta"}})) {
    render(r);
  }
  const ProbeStats stats = engine.stats();
  log.push_back(std::to_string(stats.experiments) + "/" + std::to_string(stats.bytes_sent) + "/" +
                std::to_string(stats.busy_time_s));
  return log;
}

TEST(TraceEngine, RecordSerializeParseReplayRoundTrips) {
  RecordingProbeEngine recorder(std::make_unique<CannedEngine>());
  const std::vector<std::string> live = drive(recorder);
  ASSERT_EQ(recorder.trace().records.size(), 7u);  // 3 lookups, 1 traceroute, 2 bw, 1 cbw
  const std::string text = recorder.trace().to_string();

  auto parsed = ProbeTrace::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().to_string(), text);  // serialize/parse is a fixpoint

  TraceProbeEngine replay(std::move(parsed.value()));
  EXPECT_EQ(drive(replay), live);
  EXPECT_FALSE(replay.violation().has_value());
}

TEST(TraceEngine, StrictReplayDivergenceIsStickyAndReported) {
  RecordingProbeEngine recorder(std::make_unique<CannedEngine>());
  (void)recorder.bandwidth("alpha", "beta");
  (void)recorder.bandwidth("alpha", "gamma");

  std::string reported;
  TraceProbeEngine replay(recorder.trace());
  replay.set_violation_handler([&reported](const Error& error) { reported = error.message; });

  ASSERT_TRUE(replay.bandwidth("alpha", "beta").ok());
  // Wrong endpoints: strict mode refuses and the violation sticks.
  auto diverged = replay.bandwidth("alpha", "DELTA");
  ASSERT_FALSE(diverged.ok());
  EXPECT_EQ(diverged.error().code, ErrorCode::protocol);
  EXPECT_NE(diverged.error().message.find("diverged at experiment 1"), std::string::npos)
      << diverged.error().message;
  EXPECT_EQ(reported, diverged.error().message);
  // Even the request the trace DOES hold now reports the first violation.
  auto after = replay.bandwidth("alpha", "gamma");
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.error().message, diverged.error().message);
  ASSERT_TRUE(replay.violation().has_value());
}

template <typename T>
std::string outcome_text(const Result<T>& result) {
  return result.ok() ? "ok" : result.error().message;
}

/// One engine call; returns its error text (the first transfer's for a
/// concurrent call), or "ok".
using Call = std::function<std::string(ProbeEngine&)>;

Call lookup_call(std::string host) {
  return [host](ProbeEngine& engine) { return outcome_text(engine.lookup(host)); };
}
Call traceroute_call(std::string from, std::string to) {
  return [from, to](ProbeEngine& engine) { return outcome_text(engine.traceroute(from, to)); };
}
Call bandwidth_call(std::string from, std::string to) {
  return [from, to](ProbeEngine& engine) { return outcome_text(engine.bandwidth(from, to)); };
}
Call concurrent_call(std::vector<BandwidthRequest> requests) {
  return [requests](ProbeEngine& engine) {
    return outcome_text(engine.concurrent_bandwidth(requests).at(0));
  };
}

TEST(TraceEngine, StrictReplayDivergesOnEveryCallKind) {
  const std::vector<Call> recorded = {
      lookup_call("alpha"), traceroute_call("alpha", "gw"),
      concurrent_call({BandwidthRequest{"alpha", "beta"}, BandwidthRequest{"gamma", "beta"}})};
  RecordingProbeEngine recorder(std::make_unique<CannedEngine>());
  for (const auto& call : recorded) ASSERT_EQ(call(recorder), "ok");

  struct Case {
    const char* name;
    std::size_t at;  ///< experiments replayed correctly first
    Call call;
    std::string holds;
    std::string requested;
  };
  const std::vector<Case> cases = {
      {"wrong lookup host", 0, lookup_call("omega"), "lookup alpha", "lookup omega"},
      {"wrong traceroute target", 1, traceroute_call("alpha", "elsewhere"),
       "traceroute alpha -> gw", "traceroute alpha -> elsewhere"},
      {"concurrent transfer count", 2, concurrent_call({BandwidthRequest{"alpha", "beta"}}),
       "concurrent[2] alpha -> beta, gamma -> beta", "concurrent[1] alpha -> beta"},
      {"concurrent endpoints", 2,
       concurrent_call({BandwidthRequest{"alpha", "beta"}, BandwidthRequest{"gamma", "delta"}}),
       "concurrent[2] alpha -> beta, gamma -> beta",
       "concurrent[2] alpha -> beta, gamma -> delta"},
      {"wrong kind", 0, bandwidth_call("alpha", "beta"), "lookup alpha",
       "bandwidth alpha -> beta"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    TraceProbeEngine replay(recorder.trace());
    for (std::size_t i = 0; i < c.at; ++i) ASSERT_EQ(recorded[i](replay), "ok");
    const std::string expected = "probe trace '<memory>' diverged at experiment " +
                                 std::to_string(c.at) + ": trace holds " + c.holds +
                                 ", caller requested " + c.requested;
    EXPECT_EQ(c.call(replay), expected);
    ASSERT_TRUE(replay.violation().has_value());
    EXPECT_EQ(replay.violation()->message, expected);
    // Sticky: the call the trace does hold now fails the same way.
    EXPECT_EQ(recorded[c.at](replay), expected);
    EXPECT_EQ(replay.position(), c.at);
  }

  // Lenient replay serves a diverging concurrent call from the delegate
  // without moving the cursor, then replays the recorded call.
  TraceProbeEngine lenient(recorder.trace(), TraceProbeEngine::Mode::lenient,
                           std::make_unique<CannedEngine>());
  ASSERT_EQ(recorded[0](lenient), "ok");
  ASSERT_EQ(recorded[1](lenient), "ok");
  const auto served = lenient.concurrent_bandwidth({BandwidthRequest{"alpha", "beta"}});
  ASSERT_EQ(served.size(), 1u);
  ASSERT_TRUE(served[0].ok());
  EXPECT_EQ(served[0].value(), 5.0e5);  // the delegate's first call
  EXPECT_EQ(lenient.position(), 2u);
  EXPECT_EQ(recorded[2](lenient), "ok");
  EXPECT_EQ(lenient.position(), 3u);
  EXPECT_FALSE(lenient.violation().has_value());
}

TEST(TraceEngine, StrictReplayExhaustionNamesTheExperimentIndex) {
  RecordingProbeEngine recorder(std::make_unique<CannedEngine>());
  (void)recorder.bandwidth("alpha", "beta");

  TraceProbeEngine replay(recorder.trace());
  ASSERT_TRUE(replay.bandwidth("alpha", "beta").ok());
  auto exhausted = replay.bandwidth("alpha", "beta");
  ASSERT_FALSE(exhausted.ok());
  EXPECT_NE(exhausted.error().message.find("exhausted at experiment 1"), std::string::npos)
      << exhausted.error().message;
}

TEST(TraceEngine, LenientReplayFallsBackToTheDelegate) {
  RecordingProbeEngine recorder(std::make_unique<CannedEngine>());
  (void)recorder.bandwidth("alpha", "beta");

  TraceProbeEngine replay(recorder.trace(), TraceProbeEngine::Mode::lenient,
                          std::make_unique<CannedEngine>());
  // Out-of-trace request: served by the delegate, cursor does not move.
  EXPECT_TRUE(replay.lookup("alpha").ok());
  // The recorded request still replays afterwards.
  auto recorded = replay.bandwidth("alpha", "beta");
  ASSERT_TRUE(recorded.ok());
  EXPECT_EQ(recorded.value(), 1.0e6 + 0.125);
  EXPECT_FALSE(replay.violation().has_value());
}

TEST(TraceEngine, ParseRejectsMalformedDocuments) {
  EXPECT_EQ(ProbeTrace::parse("").error().code, ErrorCode::protocol);
  EXPECT_EQ(ProbeTrace::parse("GARBAGE 9\n").error().code, ErrorCode::protocol);
  // A record without its stats line is a torn write.
  EXPECT_EQ(ProbeTrace::parse("ENVTRACE 1\nB a b ok 1.5\n").error().code, ErrorCode::protocol);
  // Unknown tags and truncated records fail loudly.
  EXPECT_EQ(ProbeTrace::parse("ENVTRACE 1\nX what\nS 1 0 0\n").error().code, ErrorCode::protocol);
  EXPECT_EQ(ProbeTrace::parse("ENVTRACE 1\nB a\nS 1 0 0\n").error().code, ErrorCode::protocol);
  // Every record kind rejects tokens after its outcome the same way.
  for (const char* record :
       {"L a err timeout m extra", "T a b err timeout m extra", "B a b err timeout m extra",
        "B a b ok 1.5 extra", "C 1 a b ok 1.5 extra", "C 1 a b err timeout m extra"}) {
    SCOPED_TRACE(record);
    auto parsed = ProbeTrace::parse(std::string("ENVTRACE 1\n") + record + "\nS 1 0 0\n");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::protocol);
    EXPECT_NE(parsed.error().message.find("trailing tokens"), std::string::npos)
        << parsed.error().message;
  }
  EXPECT_EQ(ProbeTrace::load("/definitely/not/there.envtrace").error().code, ErrorCode::not_found);
  // Comments and blank lines are fine.
  auto ok = ProbeTrace::parse("ENVTRACE 1\n# comment\n\nB a b ok 1.5\nS 1 10 0.5\n");
  ASSERT_TRUE(ok.ok()) << ok.error().to_string();
  EXPECT_EQ(ok.value().records.size(), 1u);
}

TEST(FaultSpecTest, ParsesAndRoundTripsRules) {
  auto spec = FaultSpec::parse("bw#3=fail:timeout, cbw*=scale:0.5,any%7=fail");
  ASSERT_TRUE(spec.ok()) << spec.error().to_string();
  ASSERT_EQ(spec.value().rules.size(), 3u);
  EXPECT_EQ(spec.value().rules[0].to_string(), "bw#3=fail:timeout");
  EXPECT_EQ(spec.value().rules[1].to_string(), "cbw*=scale:0.5");
  EXPECT_EQ(spec.value().rules[2].to_string(), "any%7=fail:timeout");
  // The canonical text of each rule parses back to itself.
  for (const auto& rule : spec.value().rules) {
    auto round = FaultSpec::parse(rule.to_string());
    ASSERT_TRUE(round.ok()) << rule.to_string();
    ASSERT_EQ(round.value().rules.size(), 1u);
    EXPECT_EQ(round.value().rules[0].to_string(), rule.to_string());
  }
  EXPECT_TRUE(FaultSpec::parse("").value().empty());
}

TEST(FaultSpecTest, RejectsMalformedRules) {
  for (const char* bad : {"bw#3", "bogus#1=fail", "bw=fail", "bw#x=fail", "bw%0=fail",
                          "bw#1=explode", "lookup*=scale:0.5", "bw*=scale:nope",
                          "bw#1=fail:exploded"}) {
    auto spec = FaultSpec::parse(bad);
    ASSERT_FALSE(spec.ok()) << bad;
    EXPECT_EQ(spec.error().code, ErrorCode::invalid_argument) << bad;
  }
}

TEST(FaultSpecTest, RejectsOutOfRangeAndWrappingCounters) {
  // "bw#huge" and beyond-2^64 indices must be parse errors, and "-1"
  // must not wrap to 18446744073709551615 the way bare std::stoull does
  // — none of these may throw out of parse() either.
  for (const char* bad :
       {"bw#huge=fail:timeout", "bw#99999999999999999999999=fail:timeout", "bw#-1=fail",
        "bw%-2=fail", "any#1e3=fail", "cbw*=scale:1e999", "bw*=scale:-0.5"}) {
    auto spec = FaultSpec::parse(bad);
    ASSERT_FALSE(spec.ok()) << bad;
    EXPECT_EQ(spec.error().code, ErrorCode::invalid_argument) << bad;
  }
}

TEST(FaultEngine, FailsAndScalesSelectedExperiments) {
  auto spec = FaultSpec::parse("bw#1=fail:unreachable,cbw*=scale:0.5");
  ASSERT_TRUE(spec.ok());
  FaultInjectingProbeEngine engine(std::make_unique<CannedEngine>(), spec.value());

  EXPECT_TRUE(engine.bandwidth("a", "b").ok());  // bw experiment 0 passes
  auto failed = engine.bandwidth("a", "b");      // bw experiment 1 fails
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, ErrorCode::unreachable);
  EXPECT_NE(failed.error().message.find("injected fault"), std::string::npos);
  EXPECT_TRUE(engine.bandwidth("a", "b").ok());  // and only experiment 1

  auto scaled = engine.concurrent_bandwidth({BandwidthRequest{"a", "b"}});
  ASSERT_TRUE(scaled[0].ok());
  // A failed experiment never reaches the inner engine, so the canned
  // reference sequence for the cbw call is bw, bw, cbw (inner call 3).
  CannedEngine reference;
  (void)reference.bandwidth("a", "b");
  (void)reference.bandwidth("a", "b");
  auto raw = reference.concurrent_bandwidth({BandwidthRequest{"a", "b"}});
  EXPECT_DOUBLE_EQ(scaled[0].value(), raw[0].value() * 0.5);
  EXPECT_EQ(engine.injected(), 2u);
}

TEST(FaultEngine, CountsAScaleRuleOnlyWhenItScaledAResult) {
  // Over transfers that all fail, a scale rule changes nothing and
  // counts nothing, for single and concurrent transfers alike.
  for (const char* rules : {"bw*=scale:0.5", "cbw*=scale:0.5"}) {
    SCOPED_TRACE(rules);
    FaultInjectingProbeEngine engine(std::make_unique<CannedEngine>(),
                                     FaultSpec::parse(rules).value());
    EXPECT_FALSE(engine.bandwidth("a", "unreachable").ok());
    const auto results = engine.concurrent_bandwidth(
        {BandwidthRequest{"dead", "b"}, BandwidthRequest{"dead", "c"}});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].ok());
    EXPECT_FALSE(results[1].ok());
    EXPECT_EQ(engine.injected(), 0u);
  }
}

TEST(FaultEngine, InjectedFailureNamesTheRuleAndTheCall) {
  FaultInjectingProbeEngine engine(std::make_unique<CannedEngine>(),
                                   FaultSpec::parse("lookup#0=fail,cbw#0=fail:host_down").value());
  auto lookup = engine.lookup("alpha");
  ASSERT_FALSE(lookup.ok());
  EXPECT_EQ(lookup.error().message, "injected fault (lookup#0=fail:timeout): lookup alpha");
  const auto results = engine.concurrent_bandwidth(
      {BandwidthRequest{"a", "b"}, BandwidthRequest{"c", "d"}});
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, ErrorCode::host_down);
    EXPECT_EQ(result.error().message,
              "injected fault (cbw#0=fail:host_down): concurrent[2] a -> b, c -> d");
  }
  EXPECT_EQ(engine.injected(), 2u);
}

// --- golden traces ----------------------------------------------------------

struct GoldenFamily {
  const char* spec;
  const char* file;
};

constexpr GoldenFamily kGolden[] = {
    {"dumbbell:3x3@100/10", "dumbbell-3x3.envtrace"},
    {"star-switch:6@100", "star-switch-6.envtrace"},
    {"vlan:4x2", "vlan-4x2.envtrace"},
    {"multi-firewall:2x2", "multi-firewall-2x2.envtrace"},
};

TEST(GoldenTraces, ReplayIsBitIdenticalToTheLiveRunWithZeroProbes) {
  // CI runs this suite once more with ENVNWS_TEST_PROBE_JOBS=8: the
  // batched within-zone schedule must replay the committed traces
  // exactly like the sequential one (canonical experiment order).
  int probe_jobs = 1;
  if (const char* env_jobs = std::getenv("ENVNWS_TEST_PROBE_JOBS")) {
    probe_jobs = std::max(1, std::atoi(env_jobs));
  }
  for (const auto& family : kGolden) {
    SCOPED_TRACE(family.spec);
    const fs::path path = kTraceDir / family.file;
    ASSERT_TRUE(fs::exists(path))
        << "golden trace missing: " << path
        << "\nre-record with: ./build/examples/record_trace " << family.spec << " " << path;

    auto scenario = api::ScenarioRegistry::builtin().make(family.spec);
    ASSERT_TRUE(scenario.ok()) << scenario.error().to_string();

    // The live simulator run...
    simnet::Network live_net(simnet::Scenario(scenario.value()).topology);
    api::Session live(live_net, scenario.value());
    live.options().mapper.probe_jobs = probe_jobs;
    ASSERT_TRUE(live.map().ok());

    // ...and the replay of the committed trace.
    simnet::Network replay_net(simnet::Scenario(scenario.value()).topology);
    api::Session replay(replay_net, scenario.value());
    replay.options().mapper.probe_jobs = probe_jobs;
    ASSERT_TRUE(replay.set_probe_engine_spec("replay:" + path.string()).ok());
    auto status = replay.map();
    ASSERT_TRUE(status.ok()) << status.error().to_string()
                             << "\nThe mapper's probe schedule probably changed; re-record with:"
                             << "\n  ./build/examples/record_trace " << family.spec << " " << path;

    const env::MapResult& a = live.map_result();
    const env::MapResult& b = replay.map_result();
    // A few per-field checks for readable failures first...
    EXPECT_EQ(a.master_fqdn, b.master_fqdn);
    EXPECT_EQ(a.warnings, b.warnings);
    EXPECT_EQ(a.stats.experiments, b.stats.experiments);
    ASSERT_EQ(a.zones.size(), b.zones.size());
    // ...then the single authoritative definition of bit-identity
    // (full-precision stats, grid XML, effective views, per-zone trees).
    EXPECT_EQ(a.identity_digest(), b.identity_digest());

    // Zero simulator probes during replay: the session network never saw
    // env-probe traffic (the trace engine doesn't even touch it).
    const auto& purposes = replay_net.stats().by_purpose;
    EXPECT_EQ(purposes.find("env-probe"), purposes.end());
  }
}

TEST(GoldenTraces, CommittedSocketTraceReplaysDeterministically) {
  // socket-star-6.envtrace was recorded against a REAL loopback agent
  // fleet (./examples/record_trace star-switch:6 <path> --fleet), so
  // there is no live run to compare against here — the contract is that
  // the committed trace replays at all, replays identically, and does it
  // fully offline. This is what makes socket-engine behavior testable in
  // sandboxes without network support.
  const fs::path path = kTraceDir / "socket-star-6.envtrace";
  ASSERT_TRUE(fs::exists(path))
      << "golden socket trace missing: " << path
      << "\nre-record with: ./build/examples/record_trace star-switch:6 " << path << " --fleet";

  auto scenario = api::ScenarioRegistry::builtin().make("star-switch:6");
  ASSERT_TRUE(scenario.ok());

  const auto replay_once = [&](int probe_jobs) {
    simnet::Network net(simnet::Scenario(scenario.value()).topology);
    api::Session session(net, scenario.value());
    // The recording ran with loopback tuning; the replay schedule must
    // match or strict replay rejects the probe stream.
    session.options().mapper.probe_bytes = 64 * 1024;
    session.options().mapper.stabilization_gap_s = 0.0;
    session.options().mapper.probe_jobs = probe_jobs;
    EXPECT_TRUE(session.set_probe_engine_spec("replay:" + path.string()).ok());
    auto status = session.map();
    EXPECT_TRUE(status.ok()) << status.error().to_string()
                             << "\nThe mapper's probe schedule probably changed; re-record with:"
                             << "\n  ./build/examples/record_trace star-switch:6 " << path
                             << " --fleet";
    // Fully offline: the simulator network never carried a probe.
    const auto& purposes = net.stats().by_purpose;
    EXPECT_EQ(purposes.find("env-probe"), purposes.end());
    return session.map_result().identity_digest();
  };

  const std::string sequential = replay_once(1);
  EXPECT_EQ(replay_once(1), sequential);
  // Batched replay measures the same platform (canonical-order contract).
  EXPECT_EQ(replay_once(8), sequential);
}

}  // namespace
}  // namespace envnws::env

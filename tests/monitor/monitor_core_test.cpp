// Unit coverage of the monitor building blocks: virtual clock, cycle
// scheduler, drift tracker, series store, immutable snapshots —
// everything the daemon composes, tested without any daemon or socket.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"

#include "deploy/plan.hpp"
#include "env/probe_engine.hpp"
#include "monitor/daemon.hpp"
#include "monitor/drift.hpp"
#include "monitor/schedule.hpp"
#include "monitor/snapshot.hpp"
#include "monitor/store.hpp"
#include "nws/series.hpp"

namespace envnws::monitor {
namespace {

nws::SeriesKey bw_key(const std::string& src, const std::string& dst) {
  return nws::SeriesKey{nws::ResourceKind::bandwidth, src, dst};
}

// --- clock ------------------------------------------------------------------

TEST(MonitorClock, TimeIsExactlyPeriodTimesCycles) {
  MonitorClock clock(2.5);
  EXPECT_EQ(clock.cycles(), 0u);
  EXPECT_EQ(clock.now(), 0.0);
  for (int i = 1; i <= 10; ++i) {
    clock.tick();
    EXPECT_EQ(clock.cycles(), static_cast<std::uint64_t>(i));
    // Multiplication, not accumulation: no floating-point drift, so a
    // snapshot digest depends only on the cycle count.
    EXPECT_EQ(clock.now(), 2.5 * i);
  }
}

// --- scheduler --------------------------------------------------------------

deploy::DeploymentPlan two_clique_plan() {
  deploy::DeploymentPlan plan;
  plan.master = "a";
  plan.hosts = {"a", "b", "c", "x", "y"};
  deploy::PlannedClique lan;
  lan.name = "clique-1-lan";
  lan.role = deploy::CliqueRole::switched_all;
  lan.members = {"a", "b", "c"};
  lan.network_label = "lan";
  deploy::PlannedClique inter;
  inter.name = "clique-2-inter";
  inter.role = deploy::CliqueRole::inter;
  inter.members = {"x", "y"};
  inter.network_label = "wan";
  plan.cliques = {lan, inter};
  return plan;
}

TEST(CycleScheduler, RotatesRoundRobinThroughOrderedPairs) {
  const auto plan = two_clique_plan();
  CycleScheduler scheduler(plan);
  // 3 members -> 6 ordered pairs; 2 members -> 2 ordered pairs.
  EXPECT_EQ(scheduler.pairs_total(), 8u);
  EXPECT_EQ(scheduler.probes_per_cycle(), 2u);  // one token per clique

  // Every pair of every clique is visited at least once in a sweep of 6
  // cycles (the larger clique's pair count), and the schedule is a pure
  // function of the cycle index.
  std::set<std::string> lan_pairs;
  std::set<std::string> wan_pairs;
  std::vector<ScheduledProbe> probes, again;
  for (std::uint64_t k = 0; k < 6; ++k) {
    scheduler.cycle(k, probes);
    ASSERT_EQ(probes.size(), 2u);
    EXPECT_EQ(probes[0].segment, "lan");
    EXPECT_EQ(probes[1].segment, "wan");
    lan_pairs.insert(probes[0].transfer.from + ">" + probes[0].transfer.to);
    wan_pairs.insert(probes[1].transfer.from + ">" + probes[1].transfer.to);
    scheduler.cycle(k, again);
    EXPECT_EQ(again[0].transfer.from, probes[0].transfer.from);
    EXPECT_EQ(again[0].transfer.to, probes[0].transfer.to);
  }
  EXPECT_EQ(lan_pairs.size(), 6u);
  EXPECT_EQ(wan_pairs.size(), 2u);
}

TEST(CycleScheduler, ParallelTokensMultiplyTheRefreshRate) {
  auto plan = two_clique_plan();
  plan.cliques[0].parallel_tokens = 3;
  plan.cliques.pop_back();  // lan clique only
  CycleScheduler scheduler(plan);
  EXPECT_EQ(scheduler.probes_per_cycle(), 3u);
  // Distinct pairs visited in the first `cycles` cycles of `schedule`.
  const auto visited = [](const CycleScheduler& schedule, std::uint64_t cycles) {
    std::set<std::string> pairs;
    std::vector<ScheduledProbe> probes;
    for (std::uint64_t k = 0; k < cycles; ++k) {
      schedule.cycle(k, probes);
      for (const auto& probe : probes) {
        pairs.insert(probe.transfer.from + ">" + probe.transfer.to);
      }
    }
    return pairs.size();
  };
  EXPECT_EQ(visited(scheduler, 2), 6u);  // a full sweep in ceil(6 / 3) cycles
  // Tokens are clamped to the pair count: 99 tokens over 6 pairs is 6.
  plan.cliques[0].parallel_tokens = 99;
  CycleScheduler clamped(plan);
  EXPECT_EQ(clamped.probes_per_cycle(), 6u);
  EXPECT_EQ(visited(clamped, 1), 6u);
}

TEST(CycleScheduler, SingleMemberCliquesScheduleNothing) {
  deploy::DeploymentPlan plan;
  plan.master = "solo";
  deploy::PlannedClique lonely;
  lonely.name = "clique-1-solo";
  lonely.members = {"solo"};
  plan.cliques = {lonely};
  CycleScheduler scheduler(plan);
  EXPECT_EQ(scheduler.probes_per_cycle(), 0u);
  std::vector<ScheduledProbe> probes(1);
  scheduler.cycle(0, probes);
  EXPECT_TRUE(probes.empty());
}

/// Every experiment fails: the platform is unreachable.
class UnreachableEngine final : public env::ProbeEngine {
 public:
  Result<env::HostIdentity> lookup(const std::string&) override { return failure(); }
  Result<std::vector<env::TraceHop>> traceroute(const std::string&,
                                                const std::string&) override {
    return failure();
  }
  Result<double> bandwidth(const std::string&, const std::string&) override { return failure(); }
  std::vector<Result<double>> concurrent_bandwidth(
      const std::vector<env::BandwidthRequest>& requests) override {
    return std::vector<Result<double>>(requests.size(), failure());
  }
  [[nodiscard]] env::ProbeStats stats() const override { return {}; }

 private:
  static Error failure() { return make_error(ErrorCode::timeout, "host unreachable"); }
};

TEST(CycleScheduler, UnlabeledCliquesReportTheirNameAsSegment) {
  // A clique without a network label (an unlabeled published segment, or
  // an empty `network =` line) is its own drift/re-map unit: the
  // scheduler and the daemon's events name it, never ''.
  deploy::DeploymentPlan plan;
  plan.master = "a";
  plan.hosts = {"a", "b"};
  deploy::PlannedClique unlabeled;
  unlabeled.name = "clique-1-switched";
  unlabeled.members = {"a", "b"};
  plan.cliques = {unlabeled};
  const CycleScheduler scheduler(plan);  // the probes' segments point into it
  std::vector<ScheduledProbe> probes;
  scheduler.cycle(0, probes);
  ASSERT_EQ(probes.size(), 1u);
  EXPECT_EQ(probes.front().segment, "clique-1-switched");

  MonitorOptions options;
  options.remap_on_drift = false;
  MonitorDaemon daemon(plan, std::make_unique<UnreachableEngine>(), env::MapperOptions{}, options);
  std::vector<MonitorEvent> failures;
  daemon.set_observer([&failures](const MonitorEvent& event) {
    if (event.kind == MonitorEvent::Kind::probe_failed) failures.push_back(event);
  });
  ASSERT_TRUE(daemon.run_cycles(2).ok());
  ASSERT_EQ(failures.size(), 2u);
  for (const MonitorEvent& event : failures) EXPECT_EQ(event.segment, "clique-1-switched");
}

// --- drift ------------------------------------------------------------------

TEST(DriftTracker, NeedsMinSamplesAndSustainedError) {
  DriftPolicy policy;  // threshold 0.30, window 8, min_samples 4
  DriftTracker tracker(policy.window);
  // Perfect forecasts: never drifting.
  for (int i = 0; i < 10; ++i) tracker.observe(100.0, 100.0);
  EXPECT_EQ(tracker.relative_mae(), 0.0);
  EXPECT_FALSE(tracker.drifting(policy));

  // One wild outlier inside a window of good forecasts: 2.0/8 = 0.25,
  // below threshold — a single bad measurement is not drift.
  tracker.observe(300.0, 100.0);
  EXPECT_FALSE(tracker.drifting(policy));

  // A sustained shift is: errors of 1.0 fill the window.
  for (int i = 0; i < 8; ++i) tracker.observe(200.0, 100.0);
  EXPECT_NEAR(tracker.relative_mae(), 1.0, 1e-12);
  EXPECT_TRUE(tracker.drifting(policy));

  tracker.reset();
  EXPECT_EQ(tracker.samples(), 0u);
  EXPECT_FALSE(tracker.drifting(policy));
  // Fresh trackers never drift before min_samples even on huge errors.
  tracker.observe(500.0, 100.0);
  tracker.observe(500.0, 100.0);
  EXPECT_FALSE(tracker.drifting(policy));
}

TEST(DriftTracker, RelativeErrorIsScaleFree) {
  DriftTracker lan(4);
  DriftTracker wan(4);
  for (int i = 0; i < 4; ++i) {
    lan.observe(1.3e8, 1.0e8);  // 100 Mbit/s off by 30%
    wan.observe(2.6e6, 2.0e6);  // 2 Mbit/s off by 30%
  }
  EXPECT_NEAR(lan.relative_mae(), wan.relative_mae(), 1e-12);
}

// --- store ------------------------------------------------------------------

TEST(SeriesStore, RecordIsForecastThenObserve) {
  SeriesStore store(64, DriftPolicy{});
  const auto key = bw_key("a", "b");
  // First observation: no forecast existed yet.
  auto first = store.record(key, 1.0, 100.0);
  EXPECT_FALSE(first.had_forecast);
  // Second: the forecast (trained on 100) meets the new value.
  auto second = store.record(key, 2.0, 100.0);
  EXPECT_TRUE(second.had_forecast);
  EXPECT_EQ(second.predicted, 100.0);
  EXPECT_EQ(second.relative_error, 0.0);
  // A shifted value scores the PRE-observation forecast against it.
  auto shifted = store.record(key, 3.0, 50.0);
  EXPECT_TRUE(shifted.had_forecast);
  EXPECT_EQ(shifted.predicted, 100.0);
  EXPECT_GT(shifted.relative_error, 0.0);
}

TEST(SeriesStore, CollectIsCanonical) {
  // collect() is sorted by key, whatever order the keys arrived in.
  SeriesStore store(64, DriftPolicy{});
  const std::vector<std::string> hosts = {"h4", "h3", "h2", "h1", "h0"};
  for (const auto& src : hosts) {
    for (const auto& dst : hosts) {
      if (src != dst) store.record(bw_key(src, dst), 1.0, 5.0e8);
    }
  }
  const auto states = store.collect();
  ASSERT_EQ(states.size(), 20u);
  for (std::size_t i = 1; i < states.size(); ++i) {
    EXPECT_TRUE(states[i - 1].key < states[i].key);
  }
}

TEST(SeriesStore, SeriesReturnsMostRecentPointsBounded) {
  SeriesStore store(128, DriftPolicy{});
  const auto key = bw_key("a", "b");
  for (int i = 1; i <= 10; ++i) store.record(key, i, 100.0 + i);
  const auto all = store.series(key, 0);
  ASSERT_EQ(all.size(), 10u);
  EXPECT_EQ(all.front().time, 1.0);
  const auto tail = store.series(key, 3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail.front().time, 8.0);
  EXPECT_EQ(tail.back().time, 10.0);
  EXPECT_TRUE(store.series(bw_key("no", "pair"), 0).empty());
}

TEST(SeriesStore, DriftingKeysAndResetLearning) {
  DriftPolicy policy;
  policy.relative_error_threshold = 0.2;
  policy.window = 4;
  policy.min_samples = 2;
  SeriesStore store(64, policy);
  const auto steady = bw_key("a", "b");
  const auto shifty = bw_key("c", "d");
  for (int i = 0; i < 6; ++i) {
    store.record(steady, i, 100.0);
    store.record(shifty, i, i % 2 == 0 ? 100.0 : 400.0);  // oscillates
  }
  const auto drifting = store.drifting();
  ASSERT_EQ(drifting.size(), 1u);
  EXPECT_TRUE(drifting[0] == shifty);

  store.reset_learning([&shifty](const nws::SeriesKey& key) { return key == shifty; });
  EXPECT_TRUE(store.drifting().empty());
  // History survives a learning reset; only the verdict state forgets.
  EXPECT_EQ(store.series(shifty, 0).size(), 6u);
}

TEST(SeriesStore, DumpRestoreRewarmsForecasters) {
  SeriesStore store(64, DriftPolicy{});
  for (int i = 1; i <= 8; ++i) {
    store.record(bw_key("a", "b"), i, 1.0e8 + i * 100.0);
    store.record(bw_key("b", "a"), i, 2.0e8);
  }
  const std::string dump = store.dump();
  ASSERT_FALSE(dump.empty());

  SeriesStore restored(64, DriftPolicy{});
  ASSERT_TRUE(restored.restore(dump).ok());
  EXPECT_EQ(restored.dump(), dump);
  // restore() routes every point through record(): the restored
  // forecasters predict exactly what the live ones do.
  const auto live = store.collect();
  const auto warm = restored.collect();
  ASSERT_EQ(warm.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_TRUE(warm[i].key == live[i].key);
    EXPECT_EQ(warm[i].forecast.value, live[i].forecast.value);
    EXPECT_EQ(warm[i].forecast.winner, live[i].forecast.winner);
    EXPECT_EQ(warm[i].forecast.samples, live[i].forecast.samples);
  }
  // And the dump grammar round-trips bit-identically.
  EXPECT_EQ(restored.dump(), dump);
}

TEST(SeriesStore, DumpKeepsEveryDigitOfTimesAndValues) {
  // A jittered bandwidth like 99762148.503101468 needs all 17 significant
  // digits; a dump that rounds it restores a different series and so
  // different forecasts.
  SeriesStore store(64, DriftPolicy{});
  for (int i = 1; i <= 8; ++i) {
    store.record(bw_key("a", "b"), i * 0.1, 99762148.503101468 + i / 3.0);
  }
  SeriesStore restored(64, DriftPolicy{});
  ASSERT_TRUE(restored.restore(store.dump()).ok());

  const auto original = store.series(bw_key("a", "b"), 0);
  const auto reread = restored.series(bw_key("a", "b"), 0);
  ASSERT_EQ(reread.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(reread[i].time, original[i].time);
    EXPECT_EQ(reread[i].value, original[i].value);
  }
  const auto live = store.collect();
  const auto warm = restored.collect();
  ASSERT_EQ(warm.size(), 1u);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(warm[0].forecast.value, live[0].forecast.value);
  EXPECT_EQ(warm[0].forecast.mae, live[0].forecast.mae);
  EXPECT_EQ(warm[0].forecast.rmse, live[0].forecast.rmse);
}

TEST(SeriesStore, RestoreRejectsMalformedDumps) {
  SeriesStore store(16, DriftPolicy{});
  EXPECT_FALSE(store.restore("series bandwidth a\n").ok());          // short header
  EXPECT_FALSE(store.restore("series warp a b\n1 2\n").ok());        // unknown resource
  EXPECT_FALSE(store.restore("1.0 2.0\n").ok());                     // point before header
  EXPECT_FALSE(store.restore("series cpu a -\nnot numbers\n").ok()); // junk point
  EXPECT_FALSE(store.restore("series cpu a -\n1 2 junk\n").ok());   // trailing junk
  EXPECT_FALSE(store.restore("series cpu a -\n1 2 3\n").ok());      // extra field
  EXPECT_FALSE(store.restore("series cpu a -\n1e999 2\n").ok());    // overflow
  EXPECT_EQ(store.restore("series cpu a -\n1 2 3\n").error().code, ErrorCode::protocol);
  EXPECT_TRUE(store.restore("# empty dump\n").ok());
}

// --- snapshots --------------------------------------------------------------

TEST(MonitorSnapshot, DigestIsStableAndCoversEveryObservable) {
  SeriesStore store(64, DriftPolicy{});
  store.record(bw_key("a", "b"), 1.0, 1.0e8);
  store.record(bw_key("b", "a"), 1.0, 2.0e8);

  const auto one = build_snapshot(store, 1, 5, 5.0, 10, 1, 0, 0, {"lan"});
  const auto two = build_snapshot(store, 1, 5, 5.0, 10, 1, 0, 0, {"lan"});
  EXPECT_EQ(one->digest(), two->digest());
  EXPECT_EQ(one->render(), two->render());

  // Any observable difference moves the digest.
  const auto other_version = build_snapshot(store, 2, 5, 5.0, 10, 1, 0, 0, {"lan"});
  EXPECT_NE(other_version->digest(), one->digest());
  const auto other_counts = build_snapshot(store, 1, 5, 5.0, 11, 1, 0, 0, {"lan"});
  EXPECT_NE(other_counts->digest(), one->digest());
  store.record(bw_key("a", "b"), 2.0, 1.1e8);
  const auto other_data = build_snapshot(store, 1, 5, 5.0, 10, 1, 0, 0, {"lan"});
  EXPECT_NE(other_data->digest(), one->digest());

  // Drifting segments are sorted + deduplicated before digesting.
  const auto messy = build_snapshot(store, 3, 5, 5.0, 10, 1, 0, 0, {"z", "a", "z"});
  ASSERT_EQ(messy->drifting_segments.size(), 2u);
  EXPECT_EQ(messy->drifting_segments[0], "a");
  EXPECT_EQ(messy->drifting_segments[1], "z");
}

TEST(MonitorSnapshot, FindBinarySearchesByKey) {
  SeriesStore store(64, DriftPolicy{});
  store.record(bw_key("a", "b"), 1.0, 1.0e8);
  store.record(bw_key("c", "d"), 1.0, 3.0e8);
  const auto snapshot = build_snapshot(store, 1, 1, 1.0, 2, 0, 0, 0, {});
  ASSERT_EQ(snapshot->pairs.size(), 2u);
  const PairReading* hit = snapshot->find(bw_key("c", "d"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->value, 3.0e8);
  EXPECT_EQ(snapshot->find(bw_key("x", "y")), nullptr);
}

TEST(SnapshotBoard, BootsNonNullAndPublishSwapsAtomically) {
  SnapshotBoard board;
  const auto boot = board.current();
  ASSERT_NE(boot, nullptr);
  EXPECT_EQ(boot->version, 0u);

  SeriesStore store(8, DriftPolicy{});
  store.record(bw_key("a", "b"), 1.0, 5.0e7);
  board.publish(build_snapshot(store, 1, 1, 1.0, 1, 0, 0, 0, {}));
  EXPECT_EQ(board.current()->version, 1u);
  // Old readers keep their snapshot alive through the shared_ptr.
  EXPECT_EQ(boot->version, 0u);
  // Null publications are ignored: readers never need a null check.
  board.publish(nullptr);
  EXPECT_EQ(board.current()->version, 1u);
}

TEST(SnapshotBoard, ConcurrentFirstDigestReadsAgree) {
  // Several readers ask a fresh snapshot for its digest at once; exactly
  // one computes it and every reader gets the same string.
  SeriesStore store(8, DriftPolicy{});
  for (int i = 0; i < 300; ++i) {
    store.record(bw_key("h" + std::to_string(i), "m"), 1.0, 1.0e8 + i);
  }
  constexpr int kReaders = 6;
  for (std::uint64_t version = 1; version <= 20; ++version) {
    store.record(bw_key("h" + std::to_string(version * 7 % 300), "m"), 1.0 + version, 2.0e8);
    const auto snapshot = build_snapshot(store, version, version, 1.0, version, 0, 0, 0, {});
    std::atomic<int> ready{0};
    std::vector<std::string> digests(kReaders);
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        ready.fetch_add(1);
        while (ready.load() < kReaders) std::this_thread::yield();
        digests[r] = snapshot->digest();
      });
    }
    for (std::thread& reader : readers) reader.join();
    const std::string expected = hash::hex64(hash::fnv1a64(snapshot->render()));
    for (const std::string& digest : digests) EXPECT_EQ(digest, expected) << "v" << version;
  }
}

// --- naming -----------------------------------------------------------------

TEST(ResourceNames, RoundTripThroughResourceFromString) {
  for (const auto kind :
       {nws::ResourceKind::bandwidth, nws::ResourceKind::latency, nws::ResourceKind::connect_time,
        nws::ResourceKind::cpu, nws::ResourceKind::memory, nws::ResourceKind::disk}) {
    auto parsed = nws::resource_from_string(nws::to_string(kind));
    ASSERT_TRUE(parsed.ok()) << nws::to_string(kind);
    EXPECT_EQ(parsed.value(), kind);
  }
  auto bad = nws::resource_from_string("warp-capacity");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::protocol);
}

}  // namespace
}  // namespace envnws::monitor

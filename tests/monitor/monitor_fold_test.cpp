// The incremental fold against its from-scratch oracle, absolute snapshot
// digests, and the bounded decision log.
//
// SeriesStore::collect() refreshes only the pairs record() and
// reset_learning() marked, copying only the leaves they live in and the
// interior nodes above those, and a snapshot's digest is computed on
// first read, from the leaves' cached lines. OracleStore below is the
// fold as it was before that: every pair re-forecast and re-rendered on
// every publish, into one flat vector.
// Every snapshot must render exactly as the oracle renders it, and its
// digest must be the FNV-1a of that render.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <cstdio>
#include <functional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/envnws.hpp"
#include "common/codec.hpp"
#include "common/hash.hpp"
#include "monitor/daemon.hpp"
#include "monitor/drift.hpp"
#include "monitor/snapshot.hpp"
#include "monitor/store.hpp"
#include "nws/clique.hpp"
#include "nws/forecast.hpp"
#include "nws/memory.hpp"

namespace envnws::monitor {
namespace {

using codec::format_full;

/// SeriesStore::reset_learning's selector for a list of keys.
std::function<bool(const nws::SeriesKey&)> listed(const std::vector<nws::SeriesKey>& keys) {
  return [&keys](const nws::SeriesKey& key) {
    return std::find(keys.begin(), keys.end(), key) != keys.end();
  };
}

/// The from-scratch fold: the store's record/reset semantics without a
/// cache, and the snapshot text rendered the way it always was.
class OracleStore {
 public:
  explicit OracleStore(DriftPolicy policy) : policy_(policy) {}

  void record(const nws::SeriesKey& key, double time, double value) {
    Tracked& tracked = tracked_.try_emplace(key, policy_.window).first->second;
    if (tracked.forecaster.observations() > 0) {
      tracked.drift.observe(tracked.forecaster.forecast().value, value);
    }
    tracked.forecaster.observe(value);
    tracked.latest = nws::Measurement{time, value};
  }

  void reset_learning(const std::vector<nws::SeriesKey>& keys) {
    for (const nws::SeriesKey& key : keys) {
      const auto found = tracked_.find(key);
      if (found == tracked_.end()) continue;
      found->second.forecaster = nws::AdaptiveForecaster();
      found->second.drift = DriftTracker(policy_.window);
    }
  }

  Status restore(const std::string& text) {
    return nws::parse_dump(text, [this](const nws::SeriesKey& key, double time, double value) {
      record(key, time, value);
    });
  }

  [[nodiscard]] std::vector<PairReading> collect() const {
    std::vector<PairReading> out;
    for (const auto& entry : tracked_) out.push_back(reading(entry.first));
    return out;
  }

  /// One recorded key's reading.
  [[nodiscard]] PairReading reading(const nws::SeriesKey& key) const {
    const Tracked& tracked = tracked_.at(key);
    PairReading reading;
    reading.key = key;
    reading.time = tracked.latest.time;
    reading.value = tracked.latest.value;
    reading.forecast = tracked.forecaster.forecast();
    reading.drift_relative_mae = tracked.drift.relative_mae();
    reading.drifting = tracked.drift.drifting(policy_);
    return reading;
  }

  [[nodiscard]] std::vector<nws::SeriesKey> drifting() const {
    std::vector<nws::SeriesKey> out;
    for (const auto& [key, tracked] : tracked_) {
      if (tracked.drift.drifting(policy_)) out.push_back(key);
    }
    return out;
  }

  /// `published`'s counters and segments with this oracle's pairs.
  [[nodiscard]] std::string render(const MonitorSnapshot& published) const {
    const std::vector<PairReading> pairs = collect();
    std::ostringstream out;
    out << "monitor snapshot v" << published.version << "\n";
    out << "cycles " << published.cycles << " time " << format_full(published.time_s) << "\n";
    out << "measurements " << published.measurements << " failures "
        << published.probe_failures << "\n";
    out << "remaps " << published.remaps << " remap-experiments " << published.remap_experiments
        << "\n";
    out << "drifting";
    for (const auto& segment : published.drifting_segments) out << " " << segment;
    out << "\n";
    out << "pairs " << pairs.size() << "\n";
    for (const PairReading& pair : pairs) {
      out << pair.key.to_string() << " t=" << format_full(pair.time)
          << " v=" << format_full(pair.value) << " forecast=" << format_full(pair.forecast.value)
          << " mae=" << format_full(pair.forecast.mae)
          << " rmse=" << format_full(pair.forecast.rmse) << " winner=" << pair.forecast.winner
          << " samples=" << pair.forecast.samples
          << " drift=" << format_full(pair.drift_relative_mae)
          << (pair.drifting ? " DRIFTING" : "") << "\n";
    }
    return out.str();
  }

 private:
  struct Tracked {
    nws::AdaptiveForecaster forecaster;
    DriftTracker drift;
    nws::Measurement latest;
    explicit Tracked(std::size_t window) : drift(window) {}
  };

  DriftPolicy policy_;
  std::map<nws::SeriesKey, Tracked> tracked_;
};

/// A published snapshot agrees with the oracle, and its stored digest
/// is the digest of its render.
void expect_matches_oracle(const MonitorSnapshot& snapshot, const OracleStore& oracle) {
  const std::string rendered = snapshot.render();
  EXPECT_EQ(rendered, oracle.render(snapshot)) << "snapshot v" << snapshot.version;
  EXPECT_EQ(snapshot.digest(), hash::hex64(hash::fnv1a64(rendered)))
      << "snapshot v" << snapshot.version;
}

nws::SeriesKey bw_key(const std::string& src, const std::string& dst) {
  return nws::SeriesKey{nws::ResourceKind::bandwidth, src, dst};
}

DriftPolicy twitchy_policy() {
  DriftPolicy policy;
  policy.relative_error_threshold = 0.2;
  policy.window = 4;
  policy.min_samples = 2;
  return policy;
}

TEST(MonitorFold, MatchesTheFromScratchOracleOverRandomOperations) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const DriftPolicy policy = twitchy_policy();
    SeriesStore store(16, policy);
    OracleStore oracle(policy);
    // Keys come from a pool that grows as the run goes on, so records
    // keep meeting keys never seen before.
    std::vector<nws::SeriesKey> pool;
    const auto pick_key = [&]() -> nws::SeriesKey {
      if (pool.empty() || rng() % 8 == 0) {
        pool.push_back(bw_key("h" + std::to_string(rng() % 40), "h" + std::to_string(pool.size())));
      }
      return pool[rng() % pool.size()];
    };
    double now = 0.0;
    std::uint64_t version = 0;
    std::size_t drifting_seen = 0;
    for (int step = 0; step < 1500; ++step) {
      const std::uint64_t op = rng() % 100;
      if (op < 65) {
        const nws::SeriesKey key = pick_key();
        now += 1.0;
        // Mostly steady around a per-key level, sometimes far off, so
        // drift verdicts come and go.
        const double level = 1.0e8 * static_cast<double>(1 + key.dst.size() % 5);
        const double value = level * (rng() % 5 == 0 ? 3.5 : 1.0 + (rng() % 100) * 1e-4);
        store.record(key, now, value);
        oracle.record(key, now, value);
      } else if (op < 75) {
        std::vector<nws::SeriesKey> keys;
        for (std::uint64_t n = 1 + rng() % 3; n > 0; --n) keys.push_back(pick_key());
        keys.push_back(bw_key("never", "recorded"));
        store.reset_learning(listed(keys));
        oracle.reset_learning(keys);
      } else if (op < 80) {
        // A dump of a few points, some on known keys, some on new ones.
        std::ostringstream dump;
        for (std::uint64_t n = 1 + rng() % 3; n > 0; --n) {
          const nws::SeriesKey key = pick_key();
          dump << "series bandwidth " << key.src << " " << key.dst << "\n";
          for (std::uint64_t points = 1 + rng() % 4; points > 0; --points) {
            now += 1.0;
            dump << format_full(now) << " " << format_full(2.0e8 + (rng() % 1000) * 1e5) << "\n";
          }
        }
        ASSERT_TRUE(store.restore(dump.str()).ok());
        ASSERT_TRUE(oracle.restore(dump.str()).ok());
      } else {
        ++version;
        const auto snapshot =
            build_snapshot(store, version, version, now, step, rng() % 3, rng() % 2, 0, {"lan"});
        expect_matches_oracle(*snapshot, oracle);
        EXPECT_EQ(store.drifting(), oracle.drifting());
        drifting_seen += store.drifting().size();
      }
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_GT(version, 100u);
    EXPECT_GT(drifting_seen, 0u) << "the sequence never exercised a drift verdict";
  }
}

/// Key number `n`: zero-padded, so key order is numeric order.
nws::SeriesKey numbered_key(long n) {
  char name[16];
  std::snprintf(name, sizeof name, "h%07ld", n);
  return bw_key(name, "m");
}

/// Every field of a reading equal, doubles bit for bit (NaN-free here).
bool same_reading(const PairReading& a, const PairReading& b) {
  return a.key == b.key && a.time == b.time && a.value == b.value &&
         a.forecast.value == b.forecast.value && a.forecast.mae == b.forecast.mae &&
         a.forecast.rmse == b.forecast.rmse && a.forecast.winner == b.forecast.winner &&
         a.forecast.samples == b.forecast.samples &&
         a.drift_relative_mae == b.drift_relative_mae && a.drifting == b.drifting;
}

/// The leaf pointers of a snapshot's table, node by node.
std::vector<std::vector<const PairLeaf*>> leaves_of(const PairList& pairs) {
  std::vector<std::vector<const PairLeaf*>> out;
  for (const PairList::Slot& node : pairs.nodes()) {
    out.emplace_back();
    for (const PairNode::Slot& leaf : node.node->leaves) out.back().push_back(leaf.leaf.get());
  }
  return out;
}

TEST(MonitorFold, ChunkedPairsMatchAFlatOracleAcrossSplits) {
  // Two runs of up to 600 keys (a few interior nodes) and one of up to
  // 5,000 (dozens, regrouped as the table grows).
  struct Case {
    std::uint64_t seed;
    std::size_t max_keys;
    std::uint64_t burst;  ///< most operations a burst adds
  };
  for (const Case& run : {Case{11, 600, 160}, Case{12, 600, 160}, Case{13, 5000, 1600}}) {
    SCOPED_TRACE("seed " + std::to_string(run.seed));
    std::mt19937_64 rng(run.seed);
    const DriftPolicy policy = twitchy_policy();
    SeriesStore store(8, policy);
    OracleStore oracle(policy);
    std::set<long> known;            // key numbers recorded so far
    std::vector<long> known_listed;  // the same, in recording order
    double now = 0.0;
    const auto record = [&](long n) {
      now += 1.0;
      const double level = 1.0e8 * static_cast<double>(1 + n % 7);
      const double value = level * (rng() % 6 == 0 ? 2.5 : 1.0 + (rng() % 100) * 1e-4);
      store.record(numbered_key(n), now, value);
      oracle.record(numbered_key(n), now, value);
      if (known.insert(n).second) known_listed.push_back(n);
    };
    const auto any_known = [&] { return known_listed[rng() % known_listed.size()]; };
    // A new key before the first, after the last, or anywhere between.
    const auto fresh = [&]() -> long {
      if (known.empty()) return 500000;
      const long first = *known.begin(), last = *known.rbegin();
      switch (rng() % 4) {
        case 0:
          return first - 1 - static_cast<long>(rng() % 3);
        case 1:
          return last + 1 + static_cast<long>(rng() % 3);
        default:
          return first + static_cast<long>(rng() % static_cast<std::uint64_t>(last - first + 1));
      }
    };

    struct Published {
      std::shared_ptr<const MonitorSnapshot> snapshot;
      std::string render;  ///< every 5th version only
      std::string digest;
    };
    std::vector<Published> history;
    // The flat oracle: every reading in one sorted vector, a touched
    // key's reading recomputed by the oracle after each burst.
    std::map<nws::SeriesKey, PairReading> readings;
    std::vector<PairReading> previous;  // the flat oracle at the last publish
    std::size_t most_nodes = 0;
    for (std::uint64_t version = 1; version <= 100; ++version) {
      // Mostly a few operations, sometimes a burst of new keys that
      // splits leaves and nodes.
      const std::uint64_t ops = rng() % 6 == 0 ? 40 + rng() % run.burst : 1 + rng() % 6;
      std::set<nws::SeriesKey> touched;
      bool added = false;
      for (std::uint64_t op = 0; op < ops; ++op) {
        const std::uint64_t kind = rng() % 10;
        if (known.empty() || (kind < 5 && known.size() < run.max_keys)) {
          const long n = fresh();
          added = added || known.count(n) == 0;
          record(n);
          touched.insert(numbered_key(n));
        } else if (kind < 9) {
          const long n = any_known();
          record(n);
          touched.insert(numbered_key(n));
        } else {
          std::vector<nws::SeriesKey> keys = {numbered_key(any_known()), numbered_key(-1)};
          store.reset_learning(listed(keys));
          oracle.reset_learning(keys);
          touched.insert(keys.front());
        }
      }
      const auto snapshot = build_snapshot(store, version, version, now, version, 0, 0, 0, {});
      const PairList& pairs = snapshot->pairs;
      for (const nws::SeriesKey& key : touched) readings.insert_or_assign(key, oracle.reading(key));
      std::vector<PairReading> flat;
      for (const auto& entry : readings) flat.push_back(entry.second);

      ASSERT_EQ(pairs.size(), flat.size());
      ASSERT_FALSE(pairs.empty());
      EXPECT_TRUE(same_reading(pairs.front(), flat.front()));
      std::size_t i = 0;
      for (const PairReading& pair : pairs) {
        ASSERT_LT(i, flat.size());
        EXPECT_TRUE(same_reading(pair, flat[i])) << flat[i].key.to_string();
        EXPECT_EQ(&pairs[i], &pair);
        EXPECT_EQ(pairs.find(flat[i].key), &pair);
        ++i;
      }
      EXPECT_EQ(i, flat.size());
      // Misses: before the first key, after the last, and in the gaps.
      for (const long n : {*known.begin() - 1, *known.rbegin() + 1, fresh(), fresh()}) {
        if (known.count(n) == 0) EXPECT_EQ(snapshot->find(numbered_key(n)), nullptr) << n;
      }

      // Leaves hold 1..kMax pairs, and both levels stay within twice
      // the √ of the leaf count.
      const auto table = leaves_of(pairs);
      std::size_t leaves = 0;
      for (const auto& node : table) {
        EXPECT_FALSE(node.empty());
        leaves += node.size();
        for (const PairLeaf* leaf : node) {
          EXPECT_GE(leaf->size, 1u);
          EXPECT_LE(leaf->size, PairLeaf::kMax);
        }
      }
      const std::size_t fanout = SeriesStore::node_fanout(leaves);
      EXPECT_LE(table.size(), 2 * fanout);
      for (const auto& node : table) EXPECT_LE(node.size(), 2 * fanout);
      most_nodes = std::max(most_nodes, table.size());
      // Without new keys nothing splits or regroups, so a publish
      // replaces at most one leaf per touched key, shares every other
      // leaf, and shares every node holding no touched key.
      if (!added && !history.empty()) {
        const auto before = leaves_of(history.back().snapshot->pairs);
        ASSERT_EQ(table.size(), before.size());
        std::size_t replaced = 0;
        for (std::size_t n = 0; n < table.size(); ++n) {
          const PairNode* node = pairs.nodes()[n].node.get();
          ASSERT_EQ(table[n].size(), before[n].size()) << "node " << n;
          bool node_touched = false;
          for (std::size_t l = 0; l < table[n].size(); ++l) {
            const PairLeaf* leaf = table[n][l];
            bool leaf_touched = false;
            for (std::size_t r = 0; r < leaf->size; ++r) {
              leaf_touched = leaf_touched || touched.count(leaf->readings[r].key) > 0;
            }
            node_touched = node_touched || leaf_touched;
            if (!leaf_touched) {
              EXPECT_EQ(leaf, before[n][l]) << "untouched leaf " << l << " of node " << n;
            } else if (leaf != before[n][l]) {
              ++replaced;
            }
          }
          if (!node_touched) {
            EXPECT_EQ(node, history.back().snapshot->pairs.nodes()[n].node.get())
                << "untouched node " << n;
          }
        }
        EXPECT_LE(replaced, touched.size());
      }

      const std::string rendered = snapshot->render();
      const std::string digest = hash::hex64(hash::fnv1a64(rendered));
      // Half the digests are first read now; the rest only after every
      // later publish, from leaves later snapshots share. Either way the
      // digest is the hash of render(), wherever the leaf boundaries lie.
      if (version % 2 == 0) EXPECT_EQ(snapshot->digest(), digest);
      // The previous snapshot still holds what it held when published.
      if (!history.empty()) {
        const PairList& before = history.back().snapshot->pairs;
        ASSERT_EQ(before.size(), previous.size());
        std::size_t k = 0;
        for (const PairReading& pair : before) EXPECT_TRUE(same_reading(pair, previous[k++]));
      }
      history.push_back({snapshot, version % 5 == 0 ? rendered : std::string(), digest});
      previous = std::move(flat);
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_GE(known.size(), run.max_keys * 2 / 3);
    EXPECT_GE(most_nodes, run.max_keys / 200) << "the sequence never split a node";
    // Every earlier snapshot renders and digests as it did when
    // published: shared leaves and nodes were never written.
    for (const Published& earlier : history) {
      EXPECT_EQ(earlier.snapshot->digest(), earlier.digest) << "v" << earlier.snapshot->version;
      if (earlier.snapshot->version % 5 == 0) {
        EXPECT_EQ(earlier.snapshot->render(), earlier.render) << "v" << earlier.snapshot->version;
      }
    }
  }
}

/// Plan `spec` on the simulator, as examples/envnws_monitord does with
/// its defaults, and build its daemon.
std::unique_ptr<MonitorDaemon> make_daemon(api::Session& session, MonitorOptions options) {
  EXPECT_TRUE(session.set_probe_engine_spec("sim").ok());
  auto made = session.make_monitor(options);
  EXPECT_TRUE(made.ok()) << (made.ok() ? "" : made.error().to_string());
  return made.ok() ? std::move(made.value()) : nullptr;
}

simnet::Scenario make_scenario(const std::string& spec) {
  auto made = api::ScenarioRegistry::builtin().make(spec);
  EXPECT_TRUE(made.ok()) << spec;
  return std::move(made.value());
}

TEST(MonitorFold, MatchesTheOracleThroughMonitordRunsThatDrift) {
  // The oracle replays what the daemon stored: each cycle's scheduled
  // pairs (read back from the daemon's series at the cycle's time), and
  // a learning reset of the segment's pairs after each re-map. Re-maps
  // reset every drifting pair before the publish, so the observe-only
  // run is the one that publishes drifting pairs.
  for (const bool remap : {true, false}) {
    SCOPED_TRACE(remap ? "re-map on drift" : "observe only");
    const simnet::Scenario scenario = make_scenario("bg:4:tcp-lv08:dumbbell:4x4");
    simnet::Network net(simnet::Scenario(scenario).topology);
    api::Session session(net, scenario);
    MonitorOptions options;
    options.remap_on_drift = remap;
    auto daemon = make_daemon(session, options);
    ASSERT_NE(daemon, nullptr);

    std::map<std::string, std::vector<nws::SeriesKey>> segment_keys;
    for (const deploy::PlannedClique& clique : daemon->plan().cliques) {
      if (clique.members.size() < 2) continue;
      for (std::uint64_t k = 0; k < nws::pair_count(clique.members); ++k) {
        const auto [from, to] = nws::pair_at(clique.members, k);
        segment_keys[clique.segment()].push_back(bw_key(from, to));
      }
    }

    OracleStore oracle(options.drift);
    std::uint64_t synced_cycle = 0, publishes = 0, drifting_publishes = 0;
    daemon->set_observer([&](const MonitorEvent& event) {
      if (event.kind == MonitorEvent::Kind::probe_failed) return;
      if (event.cycle != synced_cycle) {
        synced_cycle = event.cycle;
        std::set<nws::SeriesKey> keys;
        std::vector<ScheduledProbe> probes;
        daemon->scheduler().cycle(event.cycle - 1, probes);
        for (const ScheduledProbe& probe : probes) {
          keys.insert(bw_key(probe.transfer.from, probe.transfer.to));
        }
        for (const nws::SeriesKey& key : keys) {
          const auto latest = daemon->series(key, 1);
          if (!latest.empty() && latest.back().time == event.time_s) {
            oracle.record(key, latest.back().time, latest.back().value);
          }
        }
      }
      if (event.kind == MonitorEvent::Kind::remap_finished) {
        oracle.reset_learning(segment_keys[event.segment]);
      }
      if (event.kind == MonitorEvent::Kind::snapshot_published) {
        const auto snapshot = daemon->snapshot();
        expect_matches_oracle(*snapshot, oracle);
        ++publishes;
        for (const PairReading& pair : snapshot->pairs) {
          if (pair.drifting) {
            ++drifting_publishes;
            break;
          }
        }
      }
    });
    ASSERT_TRUE(daemon->run_cycles(200).ok());
    EXPECT_EQ(publishes, 200u);
    if (remap) {
      EXPECT_GT(daemon->remaps(), 0u) << "the run never exercised reset_learning";
      EXPECT_EQ(daemon->snapshot()->digest(), "f3aba73e7dcbce34");
    } else {
      EXPECT_GT(drifting_publishes, 0u) << "the run never published a drifting pair";
    }
  }
}

// Absolute digests, so a render-format change that moves every run the
// same way still fails: `envnws_monitord --scenario=<spec> --cycles=200`
// prints exactly these (defaults: sim engine, 1 s period, one probe job,
// re-map on drift).
TEST(MonitorDigests, TwoHundredSimulatedCyclesPinTheirDigest) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"dumbbell:8x8", "b479d642e12f8c5c"},
      {"star-switch:6", "f04edc1eb2cb4b63"},
      {"bg:4:tcp-lv08:dumbbell:4x4", "f3aba73e7dcbce34"},  // 3 re-maps
  };
  for (const auto& [spec, digest] : cases) {
    SCOPED_TRACE(spec);
    const simnet::Scenario scenario = make_scenario(spec);
    simnet::Network net(simnet::Scenario(scenario).topology);
    api::Session session(net, scenario);
    auto daemon = make_daemon(session, MonitorOptions{});
    ASSERT_NE(daemon, nullptr);
    ASSERT_TRUE(daemon->run_cycles(200).ok());
    const auto snapshot = daemon->snapshot();
    EXPECT_EQ(snapshot->version, 200u);
    EXPECT_EQ(snapshot->digest(), digest);
    EXPECT_EQ(snapshot->digest(), hash::hex64(hash::fnv1a64(snapshot->render())));
  }
  // The boot snapshot carries a digest too.
  EXPECT_EQ(SnapshotBoard().current()->digest(),
            hash::hex64(hash::fnv1a64(SnapshotBoard().current()->render())));
}

// monitord is the platform's one network prober: created after apply(),
// it stops the applied system's cliques, so it measures exactly what it
// measures beside a plan that was never applied. Cliques probing the
// same simulated links beside the daemon used to skew some of its
// measurements by up to half.
TEST(MonitorTakeover, DaemonAfterRunAllMeasuresWhatItMeasuresAfterPlanAlone) {
  for (const std::string spec : {"dumbbell:8x8", "dumbbell:4x4", "multi-firewall:4x4"}) {
    SCOPED_TRACE(spec);
    const auto digest_after = [&spec](bool applied) -> std::string {
      const simnet::Scenario scenario = make_scenario(spec);
      simnet::Network net(simnet::Scenario(scenario).topology);
      api::Session session(net, scenario);
      EXPECT_TRUE((applied ? session.run_all() : session.plan()).ok());
      auto daemon = make_daemon(session, MonitorOptions{});
      if (daemon == nullptr) return "no daemon";
      const auto clique_experiments = [&session, applied] {
        std::uint64_t total = 0;
        if (!applied) return total;
        for (const auto& clique : session.system().cliques()) total += clique->experiments_run();
        return total;
      };
      const std::uint64_t before = clique_experiments();
      EXPECT_TRUE(daemon->run_cycles(400).ok());
      // An experiment in flight at the takeover may still finish.
      EXPECT_LE(clique_experiments(), before + session.plan_result().cliques.size());
      return daemon->snapshot()->digest();
    };
    EXPECT_EQ(digest_after(true), digest_after(false));
  }
}

// After apply(), make_monitor() stops the whole applied system: its
// cliques, host sensors and any uncoordinated probe. A daemon cycle then
// sends no message and starts exactly the flows of its own probes. The
// digests below were recorded while the host sensors and name server
// still ran beside the daemon; their traffic never changed what it
// measured, and no later change may make it.
TEST(MonitorTakeover, AppliedSessionCyclesRunOnlyTheDaemonsProbes) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"dumbbell:8x8", "da647d7d3fce5523"},
      {"multi-firewall:4x4", "486647d9176d6611"},
      {"bg:4:tcp-lv08:dumbbell:4x4", "baaaa2fbe52d83ff"},
  };
  for (const auto& [spec, digest] : cases) {
    SCOPED_TRACE(spec);
    const simnet::Scenario scenario = make_scenario(spec);
    simnet::Network net(simnet::Scenario(scenario).topology);
    api::Session session(net, scenario);
    ASSERT_TRUE(session.run_all().ok());
    auto daemon = make_daemon(session, MonitorOptions{});
    ASSERT_NE(daemon, nullptr);
    if (spec == "dumbbell:8x8") {
      const simnet::NetStats before = net.stats();
      const std::uint64_t probes_before = daemon->measurements() + daemon->probe_failures();
      ASSERT_TRUE(daemon->run_cycles(100).ok());
      const std::uint64_t probes =
          daemon->measurements() + daemon->probe_failures() - probes_before;
      EXPECT_EQ(probes, 100 * daemon->scheduler().probes_per_cycle());
      EXPECT_EQ(net.stats().messages_sent, before.messages_sent);
      EXPECT_EQ(net.stats().flows_started, before.flows_started + probes);
    }
    ASSERT_TRUE(daemon->run_cycles(2000 - daemon->cycles()).ok());
    EXPECT_EQ(daemon->snapshot()->digest(), digest);
  }
}

std::uint64_t decision_cycle(const std::string& line) {
  return std::stoull(line.substr(line.find('=') + 1));
}

TEST(MonitordDecisionLog, KeepsTheNewestLinesUpToTheBound) {
  // Observe-only monitoring of a drifting platform logs a decision for
  // almost every cycle. Read the log every 250 cycles (fewer lines than
  // the bound), collect the full history, and compare its tail with the
  // log the daemon keeps at the end.
  const std::string spec = "bg:4:tcp-lv08:dumbbell:4x4";
  const simnet::Scenario scenario = make_scenario(spec);
  simnet::Network net(simnet::Scenario(scenario).topology);
  api::Session session(net, scenario);
  MonitorOptions options;
  options.remap_on_drift = false;
  auto daemon = make_daemon(session, options);
  ASSERT_NE(daemon, nullptr);

  std::vector<std::string> history;
  for (int chunk = 0; chunk < 8; ++chunk) {
    ASSERT_TRUE(daemon->run_cycles(250).ok());
    const std::uint64_t seen = history.empty() ? 0 : decision_cycle(history.back());
    for (const std::string& line : daemon->decision_log()) {
      if (decision_cycle(line) > seen) history.push_back(line);
    }
  }
  ASSERT_GT(history.size(), MonitorDaemon::kDecisionHistory);
  const std::vector<std::string> kept = daemon->decision_log();
  ASSERT_EQ(kept.size(), MonitorDaemon::kDecisionHistory);
  const std::vector<std::string> newest(
      history.end() - static_cast<std::ptrdiff_t>(MonitorDaemon::kDecisionHistory),
      history.end());
  EXPECT_EQ(kept, newest);
}

}  // namespace
}  // namespace envnws::monitor

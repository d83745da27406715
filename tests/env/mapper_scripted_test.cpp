// Boundary semantics of the ENV refinement rules, tested against a
// scripted ProbeEngine (no simulator): the thresholds compare with the
// exact inequalities of paper §4.2.2 — split when ratio EXCEEDS 3;
// independent when ratio is BELOW 1.25; shared when average is BELOW
// 0.7; switched when ABOVE 0.9; in between, inconclusive.
#include <gtest/gtest.h>

#include <map>

#include "common/units.hpp"
#include "env/mapper.hpp"
#include "lan_segments.hpp"

namespace envnws::env {
namespace {

using units::mbps;

/// Fully scripted observation source. Hosts are flat on one LAN (every
/// traceroute goes straight to the target); bandwidths are read from
/// tables keyed by (from, to) pairs, with an optional concurrent factor.
class ScriptedEngine final : public ProbeEngine {
 public:
  std::map<std::string, HostIdentity> identities;
  std::map<std::pair<std::string, std::string>, double> solo_bw;
  /// Multiplier applied to a transfer when it runs concurrently with
  /// another one (per unordered pair of *pairs*, keyed by the two "to"
  /// hosts for master-sourced transfers; fallback factor otherwise).
  double concurrent_factor = 1.0;
  /// Multiplier observed by the measured transfer during a jam test.
  double jam_factor = 1.0;
  std::string target = "root";

  Result<HostIdentity> lookup(const std::string& hostname) override {
    const auto it = identities.find(hostname);
    if (it == identities.end()) {
      return make_error(ErrorCode::not_found, "unknown " + hostname);
    }
    return it->second;
  }

  Result<std::vector<TraceHop>> traceroute(const std::string& from,
                                           const std::string& to) override {
    (void)from;
    (void)to;
    return std::vector<TraceHop>{TraceHop{"10.0.0.254", target, true}};
  }

  Result<double> bandwidth(const std::string& from, const std::string& to) override {
    const auto it = solo_bw.find({from, to});
    if (it == solo_bw.end()) {
      return make_error(ErrorCode::unreachable, from + "->" + to + " unscripted");
    }
    ++experiments_;
    return it->second;
  }

  std::vector<Result<double>> concurrent_bandwidth(
      const std::vector<BandwidthRequest>& requests) override {
    std::vector<Result<double>> out;
    // Two master-sourced transfers = the pairwise test; a master-sourced
    // plus a member-sourced transfer = the jam test.
    const bool is_pairwise =
        requests.size() == 2 && requests[0].from == requests[1].from;
    for (const auto& request : requests) {
      auto solo = bandwidth(request.from, request.to);
      if (!solo.ok()) {
        out.push_back(solo);
        continue;
      }
      out.push_back(solo.value() * (is_pairwise ? concurrent_factor : jam_factor));
    }
    return out;
  }

  [[nodiscard]] ProbeStats stats() const override {
    return ProbeStats{experiments_, 0, static_cast<double>(experiments_)};
  }

 private:
  std::uint64_t experiments_ = 0;
};

ScriptedEngine flat_lan(int members, double bw) {
  ScriptedEngine engine;
  engine.identities["master"] = HostIdentity{"master.lan", "10.0.0.1", {}};
  engine.solo_bw[{"master", "master"}] = bw;
  std::vector<std::string> names{"master"};
  for (int i = 0; i < members; ++i) {
    const std::string name = "h" + std::to_string(i);
    engine.identities[name] =
        HostIdentity{name + ".lan", "10.0.0." + std::to_string(10 + i), {}};
    names.push_back(name);
  }
  for (const auto& a : names) {
    for (const auto& b : names) {
      if (a != b) engine.solo_bw[{a, b}] = bw;
    }
  }
  return engine;
}

ZoneSpec flat_spec(int members) {
  ZoneSpec spec;
  spec.zone_name = "lan";
  spec.hostnames = {"master"};
  for (int i = 0; i < members; ++i) spec.hostnames.push_back("h" + std::to_string(i));
  spec.master = "master";
  spec.traceroute_target = "master";
  return spec;
}

NetKind classify_with_jam_factor(double jam_factor, MapperOptions options = {}) {
  ScriptedEngine engine = flat_lan(3, mbps(100));
  engine.concurrent_factor = 0.5;  // dependent: stay together
  engine.jam_factor = jam_factor;
  Mapper mapper(engine, options);
  auto result = mapper.map_zone(flat_spec(3));
  EXPECT_TRUE(result.ok());
  const auto segments = lan_segments(result.value().root);
  EXPECT_EQ(segments.size(), 1u);
  return segments.empty() ? NetKind::structural : segments[0]->kind;
}

TEST(ScriptedThresholds, JamBandBoundaries) {
  // avg < 0.7 -> shared (strict).
  EXPECT_EQ(classify_with_jam_factor(0.69), NetKind::shared);
  EXPECT_EQ(classify_with_jam_factor(0.70), NetKind::inconclusive);  // not < 0.7
  // between 0.7 and 0.9 -> inconclusive ("data gathering stops").
  EXPECT_EQ(classify_with_jam_factor(0.80), NetKind::inconclusive);
  EXPECT_EQ(classify_with_jam_factor(0.90), NetKind::inconclusive);  // not > 0.9
  // avg > 0.9 -> switched (strict).
  EXPECT_EQ(classify_with_jam_factor(0.91), NetKind::switched);
}

TEST(ScriptedThresholds, BandwidthSplitAtExactlyThree) {
  // Two hosts at 100, one at exactly 100/3: ratio == 3.0 does NOT exceed
  // the threshold; slightly below does.
  for (const double slow_bw : {mbps(100) / 3.0, mbps(33.0)}) {
    ScriptedEngine engine = flat_lan(3, mbps(100));
    engine.concurrent_factor = 0.5;
    engine.jam_factor = 0.5;
    for (const auto& other : {"master", "h0", "h1"}) {
      engine.solo_bw[{other, "h2"}] = slow_bw;
      engine.solo_bw[{"h2", other}] = slow_bw;
    }
    Mapper mapper(engine, MapperOptions{});
    auto result = mapper.map_zone(flat_spec(3));
    ASSERT_TRUE(result.ok());
    const auto segments = lan_segments(result.value().root);
    if (slow_bw >= mbps(100) / 3.0) {
      // ratio == 3.0: kept together (the rule is "exceeds").
      ASSERT_EQ(segments.size(), 1u);
      EXPECT_EQ(segments[0]->machines.size(), 4u);
    } else {
      // ratio ~3.03: split into the fast cluster and a lone machine.
      EXPECT_GE(result.value().root.children.size(), 2u);
    }
  }
}

TEST(ScriptedThresholds, PairwiseIndependenceSplits) {
  // concurrent_factor 1.0 -> paired bandwidth unchanged -> ratio 1.0
  // < 1.25 -> all members independent -> every cluster dissolves.
  ScriptedEngine engine = flat_lan(3, mbps(100));
  engine.concurrent_factor = 1.0;
  engine.jam_factor = 1.0;
  Mapper mapper(engine, MapperOptions{});
  auto result = mapper.map_zone(flat_spec(3));
  ASSERT_TRUE(result.ok());
  // Three singletons (plus the master riding along with one of them).
  for (const auto* segment : lan_segments(result.value().root)) {
    EXPECT_LE(segment->machines.size(), 2u);
  }
}

TEST(ScriptedThresholds, PairwiseDependenceAtExactThreshold) {
  // ratio exactly 1.25 satisfies ">= threshold": dependent, no split.
  ScriptedEngine engine = flat_lan(3, mbps(100));
  engine.concurrent_factor = 1.0 / 1.25;
  engine.jam_factor = 0.5;
  Mapper mapper(engine, MapperOptions{});
  auto result = mapper.map_zone(flat_spec(3));
  ASSERT_TRUE(result.ok());
  const auto segments = lan_segments(result.value().root);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0]->machines.size(), 4u);
  EXPECT_EQ(segments[0]->kind, NetKind::shared);
}

TEST(ScriptedThresholds, JamRepetitionCountHonored) {
  for (const int reps : {1, 5, 9}) {
    ScriptedEngine engine = flat_lan(3, mbps(100));
    engine.concurrent_factor = 0.5;
    engine.jam_factor = 0.5;
    MapperOptions options;
    options.jam_repetitions = reps;
    Mapper mapper(engine, options);
    const auto before = engine.stats().experiments;
    auto result = mapper.map_zone(flat_spec(3));
    ASSERT_TRUE(result.ok());
    // Host bw: 3; pairwise: 3 pairs x 2 transfers; internal: 3;
    // jam: reps x 2 transfers.
    EXPECT_EQ(engine.stats().experiments - before,
              3u + 6u + 3u + static_cast<std::uint64_t>(2 * reps));
  }
}

TEST(ScriptedThresholds, UnreachableMemberProducesWarningNotCrash) {
  ScriptedEngine engine = flat_lan(2, mbps(100));
  engine.concurrent_factor = 0.5;
  engine.jam_factor = 0.5;
  engine.solo_bw.erase({"master", "h1"});  // probe will fail
  Mapper mapper(engine, MapperOptions{});
  auto result = mapper.map_zone(flat_spec(2));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().warnings.empty());
}

}  // namespace
}  // namespace envnws::env

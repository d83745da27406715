// The clique pair order as index arithmetic (nws::pair_count/pair_at),
// against the list it replaced, and the daemon's segment rule, against
// the per-pair table it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/envnws.hpp"
#include "monitor/daemon.hpp"
#include "monitor/schedule.hpp"
#include "nws/clique.hpp"
#include "nws/series.hpp"

namespace envnws::monitor {
namespace {

/// The list every walker used to store: each ordered pair of distinct
/// values, in member order.
template <class Node>
std::vector<std::pair<Node, Node>> ordered_experiment_pairs(const std::vector<Node>& members) {
  std::vector<std::pair<Node, Node>> pairs;
  for (const Node& a : members) {
    for (const Node& b : members) {
      if (!(a == b)) pairs.emplace_back(a, b);
    }
  }
  return pairs;
}

template <class Node>
std::vector<std::pair<Node, Node>> walk(const std::vector<Node>& members) {
  std::vector<std::pair<Node, Node>> pairs;
  for (std::uint64_t k = 0; k < nws::pair_count(members); ++k) {
    const auto [from, to] = nws::pair_at(members, k);
    pairs.emplace_back(from, to);
  }
  return pairs;
}

nws::SeriesKey bw_key(const std::string& src, const std::string& dst) {
  return nws::SeriesKey{nws::ResourceKind::bandwidth, src, dst};
}

TEST(OrderedExperimentPairs, MatchCliqueSemantics) {
  // pair_at walks the old list for 2..40 members, names and node ids.
  EXPECT_EQ(nws::pair_count(std::vector<std::string>{}), 0u);
  EXPECT_EQ(nws::pair_count(std::vector<std::string>{"solo"}), 0u);
  std::vector<std::string> names;
  std::vector<simnet::NodeId> ids;
  for (std::uint32_t n = 1; n <= 40; ++n) {
    names.push_back("h" + std::to_string(n * 7 % 41));  // not in sorted order
    ids.emplace_back(n * 3);
    if (n < 2) continue;
    EXPECT_EQ(nws::pair_count(names), std::uint64_t{n} * (n - 1));
    EXPECT_EQ(walk(names), ordered_experiment_pairs(names)) << n << " members";
    EXPECT_EQ(walk(ids), ordered_experiment_pairs(ids)) << n << " members";
  }
}

TEST(OrderedExperimentPairs, RepeatedMembersAreWalkedOnce) {
  // pair_at skips "self" by position, so every walker first drops a
  // repeated member. The walk is then the by-value list with each pair's
  // later occurrences removed.
  const std::vector<std::string> members = {"c", "a", "c", "b", "a", "c"};
  const std::vector<std::string> distinct = nws::distinct_members(members);
  EXPECT_EQ(distinct, (std::vector<std::string>{"c", "a", "b"}));
  std::vector<std::pair<std::string, std::string>> first_seen;
  for (const auto& pair : ordered_experiment_pairs(members)) {
    if (std::find(first_seen.begin(), first_seen.end(), pair) == first_seen.end()) {
      first_seen.push_back(pair);
    }
  }
  EXPECT_EQ(walk(distinct), first_seen);

  deploy::DeploymentPlan plan;
  deploy::PlannedClique clique;
  clique.name = "clique-1-lan";
  clique.network_label = "lan";
  clique.members = members;
  clique.parallel_tokens = 99;  // clamped to the 6 distinct pairs
  plan.cliques = {clique};
  const CycleScheduler scheduler(plan);
  EXPECT_EQ(scheduler.pairs_total(), 6u);
  std::vector<std::pair<std::string, std::string>> scheduled;
  std::vector<ScheduledProbe> probes;
  scheduler.cycle(0, probes);
  for (const ScheduledProbe& probe : probes) {
    scheduled.emplace_back(probe.transfer.from, probe.transfer.to);
  }
  EXPECT_EQ(scheduled, first_seen);
}

/// The per-pair table the daemon used to build: every scheduled pair,
/// mapped to the segment of the first clique (plan order) listing it.
std::map<nws::SeriesKey, std::string> old_pair_segments(const deploy::DeploymentPlan& plan) {
  std::map<nws::SeriesKey, std::string> table;
  for (const deploy::PlannedClique& clique : plan.cliques) {
    if (clique.members.size() < 2) continue;
    for (const auto& [from, to] : ordered_experiment_pairs(clique.members)) {
      table.emplace(bw_key(from, to), clique.segment());
    }
  }
  return table;
}

void expect_same_segments(const MonitorDaemon& daemon) {
  const auto table = old_pair_segments(daemon.plan());
  ASSERT_FALSE(table.empty());
  for (const auto& [key, segment] : table) {
    const std::string* found = daemon.segment_of(key);
    ASSERT_NE(found, nullptr) << key.to_string();
    EXPECT_EQ(*found, segment) << key.to_string();
    EXPECT_EQ(daemon.segment_of({nws::ResourceKind::latency, key.src, key.dst}), nullptr);
  }
  // Host pairs no clique schedules have no segment.
  std::vector<std::string> hosts = daemon.plan().hosts;
  for (const auto& clique : daemon.plan().cliques) {
    hosts.insert(hosts.end(), clique.members.begin(), clique.members.end());
  }
  for (const std::string& a : hosts) {
    for (const std::string& b : hosts) {
      if (table.count(bw_key(a, b)) == 0) {
        EXPECT_EQ(daemon.segment_of(bw_key(a, b)), nullptr) << a << "->" << b;
      }
    }
  }
}

TEST(MonitorSegments, MatchTheOldPairTableOnEveryPlannedPair) {
  for (const std::string spec :
       {"dumbbell:8x8", "multi-firewall:4x4", "bg:4:tcp-lv08:dumbbell:4x4"}) {
    SCOPED_TRACE(spec);
    auto scenario = api::ScenarioRegistry::builtin().make(spec);
    ASSERT_TRUE(scenario.ok());
    simnet::Network net(simnet::Scenario(scenario.value()).topology);
    api::Session session(net, scenario.value());
    ASSERT_TRUE(session.set_probe_engine_spec("sim").ok());
    auto daemon = session.make_monitor(MonitorOptions{});
    ASSERT_TRUE(daemon.ok()) << daemon.error().to_string();
    expect_same_segments(*daemon.value());
    // A repeated member (the multi-firewall inter clique lists one
    // gateway twice) is scheduled once: a sweep visits each distinct
    // pair of each clique once.
    std::uint64_t distinct = 0;
    for (const deploy::PlannedClique& clique : daemon.value()->plan().cliques) {
      const auto pairs = ordered_experiment_pairs(clique.members);
      distinct += std::set<std::pair<std::string, std::string>>(pairs.begin(), pairs.end()).size();
    }
    EXPECT_EQ(daemon.value()->scheduler().pairs_total(), distinct);
  }
}

/// Every experiment fails; the segment rule needs no measurement.
class SilentEngine final : public env::ProbeEngine {
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

TEST(MonitorSegments, FirstCliqueInPlanOrderWinsAndRepeatsChangeNothing) {
  // Overlapping cliques in three segments, one of them naming a member
  // twice and one unlabeled: a shared pair belongs to the earliest.
  deploy::DeploymentPlan plan;
  plan.master = "a";
  plan.hosts = {"a", "b", "c", "d", "e"};
  deploy::PlannedClique left;
  left.name = "clique-1-left";
  left.network_label = "left";
  left.members = {"a", "b", "a", "c"};
  deploy::PlannedClique right;
  right.name = "clique-2-right";
  right.network_label = "right";
  right.members = {"c", "d", "b", "e"};
  deploy::PlannedClique inter;
  inter.name = "clique-3-inter";
  inter.members = {"e", "a", "d"};
  deploy::PlannedClique solo;
  solo.name = "clique-4-solo";
  solo.network_label = "solo";
  solo.members = {"d", "d"};
  plan.cliques = {left, right, inter, solo};
  const MonitorDaemon daemon(plan, std::make_unique<SilentEngine>(), env::MapperOptions{});
  expect_same_segments(daemon);
  EXPECT_EQ(*daemon.segment_of(bw_key("c", "b")), "left");
  EXPECT_EQ(*daemon.segment_of(bw_key("b", "d")), "right");
  EXPECT_EQ(*daemon.segment_of(bw_key("d", "e")), "right");
  EXPECT_EQ(*daemon.segment_of(bw_key("a", "e")), "clique-3-inter");
  EXPECT_EQ(daemon.segment_of(bw_key("d", "d")), nullptr);
  EXPECT_EQ(daemon.segment_of(bw_key("a", "zz")), nullptr);
}

TEST(MonitorSegments, RemapsResetTheOldTablesPairCount) {
  // pairs-reset=<n> counts the segment's planned pairs, as the table's
  // entries for that segment did, measured or not.
  const std::string spec = "bg:4:tcp-lv08:dumbbell:4x4";
  auto scenario = api::ScenarioRegistry::builtin().make(spec);
  ASSERT_TRUE(scenario.ok());
  simnet::Network net(simnet::Scenario(scenario.value()).topology);
  api::Session session(net, scenario.value());
  ASSERT_TRUE(session.set_probe_engine_spec("sim").ok());
  auto made = session.make_monitor(MonitorOptions{});
  ASSERT_TRUE(made.ok()) << made.error().to_string();
  MonitorDaemon& daemon = *made.value();
  std::map<std::string, std::size_t> planned;
  for (const auto& [key, segment] : old_pair_segments(daemon.plan())) ++planned[segment];
  std::size_t remaps = 0;
  daemon.set_observer([&](const MonitorEvent& event) {
    if (event.kind != MonitorEvent::Kind::remap_finished) return;
    ++remaps;
    const std::string suffix = " pairs-reset=" + std::to_string(planned[event.segment]);
    EXPECT_TRUE(event.detail.size() >= suffix.size() &&
                event.detail.compare(event.detail.size() - suffix.size(), suffix.size(),
                                     suffix) == 0)
        << event.segment << ": " << event.detail;
  });
  ASSERT_TRUE(daemon.run_cycles(200).ok());
  EXPECT_GT(remaps, 0u);
}

}  // namespace
}  // namespace envnws::monitor

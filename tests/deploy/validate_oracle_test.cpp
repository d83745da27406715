// Oracle tests for the §2.3 validator. `brute_force_validate` below is a
// test-local copy of the straightforward validator: it compares every
// (clique i, clique j != i, pair a of i, pair b of j), resolving paths
// inside the loop, and decides completeness with one breadth-first
// search per host pair. `deploy::validate_plan` must produce the same
// report field for field: doubles bit for bit, `render()` byte for byte,
// collisions in the same order (ties on worst_error included).
//
// The same plans drive a CoverageGraph property: distinct names share a
// `component()` exactly when `route(a, b)` finds a chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "api/envnws.hpp"
#include "common/rng.hpp"
#include "deploy/query.hpp"
#include "deploy/validate.hpp"
#include "simnet/fairshare.hpp"

namespace envnws::deploy {
namespace {

struct OracleClique {
  std::string name;
  double period_s = 10.0;
  std::vector<simnet::NodeId> members;
  std::vector<std::pair<simnet::NodeId, simnet::NodeId>> pairs;
};

ValidationReport brute_force_validate(const DeploymentPlan& plan, simnet::Network& net,
                                      ValidatorOptions options) {
  ValidationReport report;
  const simnet::Topology& topo = net.topology();
  const auto resolve = topology_resolver(topo);

  std::vector<OracleClique> cliques;
  for (const auto& planned : plan.cliques) {
    OracleClique clique;
    clique.name = planned.name;
    clique.period_s = planned.period_s;
    for (const auto& member : planned.members) {
      if (auto id = topo.find_by_name(resolve(member)); id.ok()) {
        clique.members.push_back(id.value());
      }
    }
    for (const simnet::NodeId a : clique.members) {
      for (const simnet::NodeId b : clique.members) {
        if (a != b) clique.pairs.emplace_back(a, b);
      }
    }
    report.max_clique_size = std::max(report.max_clique_size, clique.members.size());
    report.worst_cycle_time_s = std::max(
        report.worst_cycle_time_s, clique.period_s * static_cast<double>(clique.pairs.size()));
    cliques.push_back(std::move(clique));
  }

  const std::vector<double>& capacities = net.resource_capacities();
  const auto pair_label = [&topo](std::pair<simnet::NodeId, simnet::NodeId> p) {
    return topo.node(p.first).name + "->" + topo.node(p.second).name;
  };
  for (std::size_t i = 0; i < cliques.size(); ++i) {
    for (std::size_t j = 0; j < cliques.size(); ++j) {
      if (i == j) continue;
      for (const auto& pa : cliques[i].pairs) {
        const auto res_a = net.path_resources(pa.first, pa.second);
        if (!res_a.ok()) continue;
        for (const auto& pb : cliques[j].pairs) {
          if (plan.use_host_locks &&
              (pa.first == pb.first || pa.first == pb.second || pa.second == pb.first ||
               pa.second == pb.second)) {
            continue;
          }
          const auto res_b = net.path_resources(pb.first, pb.second);
          if (!res_b.ok()) continue;
          std::set<std::uint32_t> set_a(res_a.value().begin(), res_a.value().end());
          const bool overlap =
              std::any_of(res_b.value().begin(), res_b.value().end(),
                          [&set_a](std::uint32_t r) { return set_a.count(r) > 0; });
          if (!overlap) continue;
          const auto uses_a = simnet::flow_uses(res_a.value());
          const double rate_alone = simnet::solve_max_min(capacities, {uses_a})[0];
          const double rate_together =
              simnet::solve_max_min(capacities, {uses_a, simnet::flow_uses(res_b.value())})[0];
          const double error = rate_alone > 0.0 ? 1.0 - rate_together / rate_alone : 0.0;
          report.worst_collision_error = std::max(report.worst_collision_error, error);
          if (error > options.collision_tolerance) {
            report.collisions.push_back(CollisionFinding{
                cliques[i].name, pair_label(pa), cliques[j].name, pair_label(pb), error});
          }
        }
      }
    }
  }
  std::sort(report.collisions.begin(), report.collisions.end(),
            [](const CollisionFinding& a, const CollisionFinding& b) {
              return a.worst_error > b.worst_error;
            });
  report.collision_free = report.collisions.empty();

  const CoverageGraph coverage(plan, resolve);
  std::vector<std::string> nodes;
  for (const auto& host : plan.hosts) nodes.push_back(resolve(host));
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (coverage.route(nodes[i], nodes[j]).empty()) {
        report.uncovered_pairs.emplace_back(nodes[i], nodes[j]);
      }
    }
  }
  report.complete = report.uncovered_pairs.empty();

  report.experiments_per_cycle = plan.experiments_per_cycle();
  for (const auto& planned : plan.cliques) {
    const auto n = static_cast<std::int64_t>(planned.members.size());
    if (n < 2) continue;
    const std::int64_t probe = planned.probe_bytes > 0 ? planned.probe_bytes : kLanProbeBytes;
    report.bytes_per_cycle += n * (n - 1) * (probe + 2 * 4 + 64);
  }
  return report;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_same_report(const ValidationReport& want, const ValidationReport& got) {
  EXPECT_EQ(want.collision_free, got.collision_free);
  EXPECT_EQ(want.collisions.size(), got.collisions.size());
  const std::size_t shared = std::min(want.collisions.size(), got.collisions.size());
  for (std::size_t k = 0; k < shared; ++k) {
    SCOPED_TRACE("collision " + std::to_string(k));
    EXPECT_EQ(want.collisions[k].clique_a, got.collisions[k].clique_a);
    EXPECT_EQ(want.collisions[k].pair_a, got.collisions[k].pair_a);
    EXPECT_EQ(want.collisions[k].clique_b, got.collisions[k].clique_b);
    EXPECT_EQ(want.collisions[k].pair_b, got.collisions[k].pair_b);
    EXPECT_EQ(bits(want.collisions[k].worst_error), bits(got.collisions[k].worst_error));
  }
  EXPECT_EQ(bits(want.worst_collision_error), bits(got.worst_collision_error));
  EXPECT_EQ(want.max_clique_size, got.max_clique_size);
  EXPECT_EQ(bits(want.worst_cycle_time_s), bits(got.worst_cycle_time_s));
  EXPECT_EQ(want.complete, got.complete);
  EXPECT_EQ(want.uncovered_pairs, got.uncovered_pairs);
  EXPECT_EQ(want.experiments_per_cycle, got.experiments_per_cycle);
  EXPECT_EQ(want.bytes_per_cycle, got.bytes_per_cycle);
  EXPECT_EQ(want.render(), got.render());
}

/// The default tolerance, and zero: every overlapping pair becomes a
/// finding, so many findings tie on worst_error and the order of ties
/// is checked too.
void expect_matches_oracle(const DeploymentPlan& plan, simnet::Network& net) {
  for (const double tolerance : {0.05, 0.0}) {
    SCOPED_TRACE("tolerance " + std::to_string(tolerance));
    ValidatorOptions options;
    options.collision_tolerance = tolerance;
    expect_same_report(brute_force_validate(plan, net, options),
                       validate_plan(plan, net, options));
  }
}

/// Every ordered pair over the plan's names (resolved), plus names the
/// plan never mentions: those stay uncoverable.
void expect_coverage_property(const DeploymentPlan& plan, const CoverageGraph::Resolver& resolve) {
  const CoverageGraph coverage(plan, resolve);
  std::set<std::string> names{"unknown.nowhere", "another-unknown"};
  for (const auto& host : plan.hosts) names.insert(resolve(host));
  for (const auto& clique : plan.cliques) {
    for (const auto& member : clique.members) names.insert(resolve(member));
  }
  for (const auto& substitution : plan.substitutions) {
    names.insert(resolve(substitution.rep_a));
    names.insert(resolve(substitution.rep_b));
    for (const auto& machine : substitution.covered) names.insert(resolve(machine));
  }
  for (const auto& a : names) {
    for (const auto& b : names) {
      if (a == b) continue;
      const bool want = !coverage.route(a, b).empty();
      const auto component = coverage.component(a);
      EXPECT_EQ(component.has_value() && component == coverage.component(b), want)
          << a << " -> " << b;
    }
  }
}

void check_spec(const std::string& spec, bool host_locks = false) {
  SCOPED_TRACE(spec + (host_locks ? " (host locks)" : ""));
  auto scenario = api::ScenarioRegistry::builtin().make(spec);
  ASSERT_TRUE(scenario.ok()) << spec;
  simnet::Network net(simnet::Scenario(scenario.value()).topology);
  api::Session session(net, scenario.value());
  session.options().planner.use_host_locks = host_locks;
  ASSERT_TRUE(session.map().ok());
  ASSERT_TRUE(session.plan().ok());
  const DeploymentPlan& plan = session.plan_result();
  EXPECT_EQ(plan.use_host_locks, host_locks);
  expect_matches_oracle(plan, net);
  expect_coverage_property(plan, topology_resolver(net.topology()));
}

std::vector<std::string> oracle_specs() {
  std::vector<std::string> specs;
  for (const auto* entry : api::ScenarioRegistry::builtin().entries()) {
    if (entry->name != "file") specs.push_back(entry->name);
  }
  specs.insert(specs.end(), {"multi-firewall:4x4", "multi-firewall:8x8", "tcp-lv08:ens-lyon"});
  return specs;
}

TEST(ValidateOracle, MatchesBruteForceOnRegistrySpecs) {
  for (const auto& spec : oracle_specs()) check_spec(spec);
}

TEST(ValidateOracle, MatchesBruteForceWithHostLocks) {
  for (const std::string spec : {"ens-lyon", "dumbbell:4x4@100/10", "multi-firewall:3x3"}) {
    check_spec(spec, /*host_locks=*/true);
  }
}

/// A random plan over `topo`'s hosts: a random split into cliques, some
/// members shared with another clique or listed twice, one member no
/// topology node answers to, one host left out of every clique, and a
/// few substitutions. Members are named by fqdn or by node name.
DeploymentPlan random_plan(const simnet::Topology& topo, Rng& rng) {
  std::vector<std::string> names;
  for (const simnet::NodeId id : topo.hosts()) {
    const simnet::Node& node = topo.node(id);
    names.push_back(node.fqdn.empty() || rng.next_below(4) == 0 ? node.name : node.fqdn);
  }
  for (std::size_t k = names.size(); k > 1; --k) {
    std::swap(names[k - 1], names[rng.next_below(k)]);
  }
  const auto pick = [&rng, &names] { return names[rng.next_below(names.size())]; };

  DeploymentPlan plan;
  plan.master = names.front();
  plan.nameserver_host = names.front();
  plan.forecaster_host = names.front();
  plan.hosts = names;
  plan.hosts.push_back("ghost-host.nowhere");
  plan.use_host_locks = rng.next_below(2) == 1;

  const std::size_t in_cliques = names.size() - 1;  // names.back() joins no clique
  for (std::size_t start = 0; start < in_cliques;) {
    const std::size_t size =
        std::min<std::size_t>(1 + rng.next_below(5), in_cliques - start);
    PlannedClique clique;
    clique.name = "clique-" + std::to_string(plan.cliques.size());
    clique.period_s = 1.0 + static_cast<double>(rng.next_below(20));
    clique.members.assign(names.begin() + static_cast<std::ptrdiff_t>(start),
                          names.begin() + static_cast<std::ptrdiff_t>(start + size));
    if (rng.next_below(3) == 0) clique.members.push_back(names[rng.next_below(in_cliques)]);
    if (rng.next_below(4) == 0) clique.members.push_back(clique.members.front());
    plan.cliques.push_back(std::move(clique));
    start += size;
  }
  plan.cliques[rng.next_below(plan.cliques.size())].members.push_back("ghost-member.nowhere");

  const std::size_t substitutions = rng.next_below(3);
  for (std::size_t s = 0; s < substitutions; ++s) {
    Substitution substitution;
    substitution.network_label = "segment-" + std::to_string(s);
    substitution.rep_a = pick();
    substitution.rep_b = pick();
    const std::size_t covered = 2 + rng.next_below(3);
    for (std::size_t c = 0; c < covered; ++c) substitution.covered.push_back(pick());
    plan.substitutions.push_back(std::move(substitution));
  }
  return plan;
}

TEST(ValidateOracle, MatchesBruteForceOnRandomPlans) {
  for (const std::string spec : {"ens-lyon", "dumbbell:3x3@100/10", "star-hub:6@100"}) {
    auto scenario = api::ScenarioRegistry::builtin().make(spec);
    ASSERT_TRUE(scenario.ok()) << spec;
    simnet::Network net(std::move(scenario.value().topology));
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      SCOPED_TRACE(spec + " seed " + std::to_string(seed));
      Rng rng(seed);
      const DeploymentPlan plan = random_plan(net.topology(), rng);
      expect_matches_oracle(plan, net);
    }
  }
}

TEST(CoverageGraphProperty, CoverableMatchesRouteOnRandomPlans) {
  auto scenario = api::ScenarioRegistry::builtin().make("ens-lyon");
  ASSERT_TRUE(scenario.ok());
  const simnet::Topology& topo = scenario.value().topology;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    expect_coverage_property(random_plan(topo, rng), topology_resolver(topo));
  }
}

TEST(ValidateOracle, RandomPlansExerciseEveryShape) {
  // The generator must actually produce the shapes the oracle test
  // relies on, or the comparison above proves little.
  auto scenario = api::ScenarioRegistry::builtin().make("ens-lyon");
  ASSERT_TRUE(scenario.ok());
  simnet::Network net(std::move(scenario.value().topology));
  bool locks_on = false;
  bool locks_off = false;
  bool duplicates = false;
  bool substituted = false;
  bool collisions = false;
  bool incomplete = false;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const DeploymentPlan plan = random_plan(net.topology(), rng);
    (plan.use_host_locks ? locks_on : locks_off) = true;
    substituted = substituted || !plan.substitutions.empty();
    for (const auto& clique : plan.cliques) {
      const std::set<std::string> unique(clique.members.begin(), clique.members.end());
      duplicates = duplicates || unique.size() < clique.members.size();
    }
    const ValidationReport report = validate_plan(plan, net);
    collisions = collisions || !report.collision_free;
    incomplete = incomplete || !report.complete;
  }
  EXPECT_TRUE(locks_on);
  EXPECT_TRUE(locks_off);
  EXPECT_TRUE(duplicates);
  EXPECT_TRUE(substituted);
  EXPECT_TRUE(collisions);
  EXPECT_TRUE(incomplete);
}

}  // namespace
}  // namespace envnws::deploy

#include "deploy/validate.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "common/strings.hpp"
#include "deploy/query.hpp"
#include "nws/clique.hpp"
#include "simnet/fairshare.hpp"

namespace envnws::deploy {

namespace {

struct ResolvedClique {
  std::string name;
  double period_s = 10.0;
  /// Repeats kept: a node listed twice (a planner inter clique repeats a
  /// representative, two names resolve to one node) keeps both places in
  /// nws::pair_at's walk, minus its pairs with itself.
  std::vector<simnet::NodeId> members;
  std::size_t pairs = 0;  ///< walked pairs whose ends differ
};

/// One experiment of the collision check, its path resolved once.
struct Experiment {
  std::pair<simnet::NodeId, simnet::NodeId> pair;
  std::vector<std::uint32_t> resources;  ///< empty when the path does not resolve
  /// Experiments of other cliques sharing a resource, ascending index.
  std::vector<std::size_t> candidates;
  std::vector<simnet::WeightedUse> uses;
  double rate_alone = 0.0;
};

// Constraint 1. Experiments are numbered clique by clique, so clique c
// owns the index range [first[c], first[c + 1]) and a candidate list
// sorted by index is sorted by (clique, pair). The walk visits
// (i, j != i, pair a of i, pair b of j) in that order, as a walk over
// every experiment pair would, but only where a and b share a resource:
// disjoint resource sets can never interact.
void check_collisions(const std::vector<ResolvedClique>& cliques, bool use_host_locks,
                      const simnet::Network& net, double tolerance, ValidationReport& report) {
  const std::size_t active = static_cast<std::size_t>(std::count_if(
      cliques.begin(), cliques.end(), [](const ResolvedClique& c) { return c.pairs > 0; }));
  if (active < 2) return;  // no cross-clique experiment pair exists

  const simnet::Topology& topo = net.topology();
  const std::vector<double>& capacities = net.resource_capacities();
  std::vector<std::size_t> first{0};
  std::vector<Experiment> experiments;
  for (const auto& clique : cliques) {
    for (std::uint64_t k = 0; k < nws::pair_count(clique.members); ++k) {
      const auto [src, dst] = nws::pair_at(clique.members, k);
      if (src == dst) continue;
      Experiment experiment;
      experiment.pair = {src, dst};
      if (auto resources = net.path_resources(src, dst); resources.ok()) {
        experiment.resources = std::move(resources.value());
      }
      experiments.push_back(std::move(experiment));
    }
    first.push_back(experiments.size());
  }

  // Resource -> experiments using it, ascending (experiments are added
  // in index order).
  std::vector<std::vector<std::size_t>> users(capacities.size());
  for (std::size_t e = 0; e < experiments.size(); ++e) {
    for (const std::uint32_t r : experiments[e].resources) users[r].push_back(e);
  }
  for (std::size_t c = 0; c < cliques.size(); ++c) {
    for (std::size_t e = first[c]; e < first[c + 1]; ++e) {
      Experiment& experiment = experiments[e];
      for (const std::uint32_t r : experiment.resources) {
        const auto& list = users[r];
        const auto own_begin = std::lower_bound(list.begin(), list.end(), first[c]);
        const auto own_end = std::lower_bound(own_begin, list.end(), first[c + 1]);
        experiment.candidates.insert(experiment.candidates.end(), list.begin(), own_begin);
        experiment.candidates.insert(experiment.candidates.end(), own_end, list.end());
      }
      auto& candidates = experiment.candidates;
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
      if (candidates.empty()) continue;
      // Only experiments that can collide need their solo rate.
      experiment.uses = simnet::flow_uses(experiment.resources);
      experiment.rate_alone = simnet::solve_max_min(capacities, {experiment.uses})[0];
    }
  }

  const auto pair_label = [&topo](std::pair<simnet::NodeId, simnet::NodeId> p) {
    return topo.node(p.first).name + "->" + topo.node(p.second).name;
  };
  for (std::size_t i = 0; i < cliques.size(); ++i) {
    for (std::size_t j = 0; j < cliques.size(); ++j) {
      if (i == j) continue;
      for (std::size_t a = first[i]; a < first[i + 1]; ++a) {
        const Experiment& ea = experiments[a];
        const auto& candidates = ea.candidates;
        for (auto it = std::lower_bound(candidates.begin(), candidates.end(), first[j]);
             it != candidates.end() && *it < first[j + 1]; ++it) {
          const Experiment& eb = experiments[*it];
          const auto& pa = ea.pair;
          const auto& pb = eb.pair;
          // Host-level locks (extension) serialize any two experiments
          // that share an endpoint: those can never run concurrently.
          if (use_host_locks && (pa.first == pb.first || pa.first == pb.second ||
                                 pa.second == pb.first || pa.second == pb.second)) {
            continue;
          }
          // Quantify: max-min rate of experiment (a) alone vs concurrent.
          const double rate_together = simnet::solve_max_min(capacities, {ea.uses, eb.uses})[0];
          const double error = ea.rate_alone > 0.0 ? 1.0 - rate_together / ea.rate_alone : 0.0;
          report.worst_collision_error = std::max(report.worst_collision_error, error);
          if (error > tolerance) {
            report.collisions.push_back(CollisionFinding{
                cliques[i].name, pair_label(pa), cliques[j].name, pair_label(pb), error});
          }
        }
      }
    }
  }
  // Unstable on purpose: findings tying on worst_error land where this
  // sort puts them given the enumeration order above, and the report's
  // byte-for-byte contract is that pair of facts.
  std::sort(report.collisions.begin(), report.collisions.end(),
            [](const CollisionFinding& a, const CollisionFinding& b) {
              return a.worst_error > b.worst_error;
            });
}

}  // namespace

ValidationReport validate_plan(const DeploymentPlan& plan, simnet::Network& net,
                               ValidatorOptions options) {
  ValidationReport report;
  const simnet::Topology& topo = net.topology();
  const auto resolve = topology_resolver(topo);

  // Resolve cliques to node ids.
  std::vector<ResolvedClique> cliques;
  for (const auto& planned : plan.cliques) {
    ResolvedClique clique;
    clique.name = planned.name;
    clique.period_s = planned.period_s;
    for (const auto& member : planned.members) {
      if (auto id = topo.find_by_name(resolve(member)); id.ok()) {
        clique.members.push_back(id.value());
      }
    }
    for (std::uint64_t k = 0; k < nws::pair_count(clique.members); ++k) {
      const auto [src, dst] = nws::pair_at(clique.members, k);
      clique.pairs += src != dst ? 1 : 0;
    }
    report.max_clique_size = std::max(report.max_clique_size, clique.members.size());
    report.worst_cycle_time_s = std::max(report.worst_cycle_time_s,
                                         clique.period_s * static_cast<double>(clique.pairs));
    cliques.push_back(std::move(clique));
  }

  // --- constraint 1: collision-freedom ---------------------------------
  check_collisions(cliques, plan.use_host_locks, net, options.collision_tolerance, report);
  report.collision_free = report.collisions.empty();

  // --- constraint 3: completeness --------------------------------------
  // Coverage is symmetric, so a pair is coverable exactly when both
  // hosts sit in one connected component of the coverage graph.
  const CoverageGraph coverage(plan, resolve);
  std::vector<std::string> nodes;
  for (const auto& host : plan.hosts) nodes.push_back(resolve(host));
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  std::vector<std::optional<std::size_t>> components;
  components.reserve(nodes.size());
  for (const auto& node : nodes) components.push_back(coverage.component(node));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (!components[i] || components[i] != components[j]) {
        report.uncovered_pairs.emplace_back(nodes[i], nodes[j]);
      }
    }
  }
  report.complete = report.uncovered_pairs.empty();

  // --- constraint 4: intrusiveness --------------------------------------
  report.experiments_per_cycle = plan.experiments_per_cycle();
  report.bytes_per_cycle = 0;
  for (const auto& planned : plan.cliques) {
    const auto n = static_cast<std::int64_t>(planned.members.size());
    if (n < 2) continue;
    const std::int64_t probe = planned.probe_bytes > 0 ? planned.probe_bytes : kLanProbeBytes;
    report.bytes_per_cycle += n * (n - 1) * (probe + 2 * 4 /*latency*/ + 64 /*store*/);
  }
  return report;
}

std::string ValidationReport::render() const {
  std::ostringstream out;
  out << "deployment validation: " << (ok() ? "OK" : "VIOLATIONS FOUND") << "\n";
  out << "  collision-free : " << (collision_free ? "yes" : "NO") << " (worst concurrent error "
      << strings::format_double(worst_collision_error * 100.0, 1) << "%)\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(collisions.size(), 8); ++i) {
    const auto& c = collisions[i];
    out << "    " << c.clique_a << " [" << c.pair_a << "] vs " << c.clique_b << " ["
        << c.pair_b << "]: " << strings::format_double(c.worst_error * 100.0, 1) << "%\n";
  }
  out << "  completeness   : " << (complete ? "yes" : "NO");
  if (!uncovered_pairs.empty()) {
    out << " (" << uncovered_pairs.size() << " uncovered pairs, e.g. "
        << uncovered_pairs.front().first << "<->" << uncovered_pairs.front().second << ")";
  }
  out << "\n";
  out << "  max clique     : " << max_clique_size << " members\n";
  out << "  worst cycle    : " << strings::format_double(worst_cycle_time_s, 1) << " s\n";
  out << "  intrusiveness  : " << experiments_per_cycle << " experiments / cycle, "
      << bytes_per_cycle << " bytes / cycle\n";
  return out.str();
}

}  // namespace envnws::deploy

#include "deploy/validate.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/strings.hpp"
#include "deploy/query.hpp"
#include "simnet/fairshare.hpp"

namespace envnws::deploy {

namespace {

struct ResolvedClique {
  std::string name;
  double period_s = 10.0;
  std::vector<simnet::NodeId> members;
  std::vector<std::pair<simnet::NodeId, simnet::NodeId>> pairs;
};

}  // namespace

ValidationReport validate_plan(const DeploymentPlan& plan, simnet::Network& net,
                               ValidatorOptions options) {
  ValidationReport report;
  const simnet::Topology& topo = net.topology();
  const auto resolve = topology_resolver(topo);

  // Resolve cliques to node ids and ordered experiment pairs.
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

  // --- constraint 1: collision-freedom ---------------------------------
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
          // Host-level locks (extension) serialize any two experiments
          // that share an endpoint: those can never run concurrently.
          if (plan.use_host_locks &&
              (pa.first == pb.first || pa.first == pb.second || pa.second == pb.first ||
               pa.second == pb.second)) {
            continue;
          }
          const auto res_b = net.path_resources(pb.first, pb.second);
          if (!res_b.ok()) continue;
          // Fast reject: disjoint resource sets can never interact.
          std::set<std::uint32_t> set_a(res_a.value().begin(), res_a.value().end());
          const bool overlap =
              std::any_of(res_b.value().begin(), res_b.value().end(),
                          [&set_a](std::uint32_t r) { return set_a.count(r) > 0; });
          if (!overlap) continue;
          // Quantify: max-min rate of experiment (a) alone vs concurrent.
          const auto uses_a = simnet::flow_uses(res_a.value());
          const double rate_alone = simnet::solve_max_min(capacities, {uses_a})[0];
          const double rate_together =
              simnet::solve_max_min(capacities, {uses_a, simnet::flow_uses(res_b.value())})[0];
          const double error =
              rate_alone > 0.0 ? 1.0 - rate_together / rate_alone : 0.0;
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

  // --- constraint 3: completeness --------------------------------------
  const CoverageGraph coverage(plan, resolve);
  std::vector<std::string> nodes;
  for (const auto& host : plan.hosts) nodes.push_back(resolve(host));
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (!coverage.coverable(nodes[i], nodes[j])) {
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

#include "deploy/planner.hpp"

#include <algorithm>
#include <set>

#include "nws/clique.hpp"

namespace envnws::deploy {

using env::EnvNetwork;
using env::NetKind;

namespace {

/// Tokens per switched clique when host locks are on (capped at
/// floor(members/2), the concurrency a switched segment supports).
constexpr std::size_t kSwitchedParallelTokens = 2;

class Planner {
 public:
  Planner(const std::string& master, const PlannerOptions& options)
      : master_(master), options_(options) {}

  Result<DeploymentPlan> run(const EnvNetwork& root) {
    plan_.master = master_;
    plan_.nameserver_host = master_;
    plan_.forecaster_host = master_;
    plan_.use_host_locks = options_.use_host_locks;
    plan_.hosts = root.all_machines();
    std::sort(plan_.hosts.begin(), plan_.hosts.end());
    plan_.hosts.erase(std::unique(plan_.hosts.begin(), plan_.hosts.end()),
                      plan_.hosts.end());
    if (plan_.hosts.empty()) {
      return make_error(ErrorCode::invalid_argument, "effective view contains no machines");
    }
    visit(root);
    if (plan_.memory_hosts.empty()) plan_.memory_hosts.push_back(master_);
    return plan_;
  }

  void add_memory_host(const std::string& host) {
    if (std::find(plan_.memory_hosts.begin(), plan_.memory_hosts.end(), host) ==
        plan_.memory_hosts.end()) {
      plan_.memory_hosts.push_back(host);
    }
  }

 private:
  /// Rank of a machine as a representative: preferred (merge pivots /
  /// zone masters) beat ordinary members; the global master is avoided
  /// (the paper picked canaria+moby for hub1, not the-doors); ties break
  /// alphabetically for determinism.
  [[nodiscard]] std::vector<std::string> ranked(std::vector<std::string> machines) const {
    std::sort(machines.begin(), machines.end(), [this](const auto& a, const auto& b) {
      const auto rank = [this](const std::string& m) {
        const bool preferred =
            std::find(options_.preferred_representatives.begin(),
                      options_.preferred_representatives.end(),
                      m) != options_.preferred_representatives.end();
        if (preferred) return 0;
        if (m == master_) return 2;
        return 1;
      };
      const int ra = rank(a);
      const int rb = rank(b);
      if (ra != rb) return ra < rb;
      return a < b;
    });
    return machines;
  }

  /// The machine that stands for a whole subtree in inter-network cliques.
  [[nodiscard]] std::string representative_of(const EnvNetwork& network) const {
    if (!network.machines.empty()) return ranked(network.machines).front();
    for (const auto& child : network.children) {
      const std::string rep = representative_of(child);
      if (!rep.empty()) return rep;
    }
    return "";
  }

  void add_clique(CliqueRole role, const std::string& network_label,
                  std::vector<std::string> members) {
    if (members.size() < 2) return;
    PlannedClique clique;
    clique.name = "clique-" + std::to_string(plan_.cliques.size() + 1) + "-" +
                  (network_label.empty() ? to_string(role) : network_label);
    clique.role = role;
    clique.members = std::move(members);
    clique.network_label = network_label;
    clique.probe_bytes = role == CliqueRole::inter ? kWanProbeBytes : kLanProbeBytes;
    if (options_.use_host_locks && role == CliqueRole::switched_all) {
      clique.parallel_tokens =
          std::min(kSwitchedParallelTokens, clique.members.size() / 2);
      if (clique.parallel_tokens < 1) clique.parallel_tokens = 1;
    }
    plan_.cliques.push_back(std::move(clique));
  }

  void plan_shared(const EnvNetwork& network) {
    // One couple's connectivity is representative of every couple's:
    // measure two representatives, substitute for the rest.
    const std::vector<std::string> by_rank = ranked(network.machines);
    std::vector<std::string> pair(by_rank.begin(),
                                  by_rank.begin() + std::min<std::size_t>(2, by_rank.size()));
    if (pair.size() < 2) return;
    add_clique(CliqueRole::shared_pair, network.label, pair);

    Substitution substitution;
    substitution.network_label = network.label;
    substitution.covered = network.machines;
    // The gateway sits on this medium too: its local pairs are covered.
    if (!network.gateway.empty() &&
        std::find(substitution.covered.begin(), substitution.covered.end(),
                  network.gateway) == substitution.covered.end()) {
      substitution.covered.push_back(network.gateway);
    }
    std::sort(substitution.covered.begin(), substitution.covered.end());
    substitution.rep_a = pair[0];
    substitution.rep_b = pair[1];
    plan_.substitutions.push_back(std::move(substitution));
  }

  void plan_switched(const EnvNetwork& network) {
    // Pairs are independent but a host must join one experiment at a
    // time: one clique with every member (§5.1). The gateway joins so
    // member<->rest-of-world paths have a measured first hop.
    std::vector<std::string> members = network.machines;
    if (!network.gateway.empty() &&
        std::find(members.begin(), members.end(), network.gateway) == members.end()) {
      members.push_back(network.gateway);
    }
    std::sort(members.begin(), members.end());

    if (options_.max_clique_size >= 3 && members.size() > options_.max_clique_size) {
      // Scalability split: carve into sub-cliques stitched by a shared
      // pivot member, so aggregation paths exist across the split.
      const std::string pivot = ranked(members).front();
      std::vector<std::string> rest;
      for (const auto& member : members) {
        if (member != pivot) rest.push_back(member);
      }
      const std::size_t chunk = options_.max_clique_size - 1;
      for (std::size_t start = 0, index = 1; start < rest.size();
           start += chunk, ++index) {
        std::vector<std::string> sub{pivot};
        for (std::size_t i = start; i < std::min(rest.size(), start + chunk); ++i) {
          sub.push_back(rest[i]);
        }
        add_clique(CliqueRole::switched_all,
                   network.label + "/part" + std::to_string(index), sub);
      }
      return;
    }
    add_clique(CliqueRole::switched_all, network.label, members);
  }

  void visit(const EnvNetwork& network) {
    switch (network.kind) {
      case NetKind::shared:
        plan_shared(network);
        break;
      case NetKind::switched:
      case NetKind::inconclusive:
        // Inconclusive segments get the conservative treatment: a full
        // clique is collision-safe whether the medium is shared or
        // switched, at the price of more experiments.
        plan_switched(network);
        break;
      case NetKind::structural:
        break;
    }

    // Children: recurse, then link the siblings of this level with an
    // inter-network clique of one representative each. Machines sitting
    // directly on a structural node count as their own group.
    std::vector<std::string> group_representatives;
    if (network.kind == NetKind::structural) {
      for (const auto& machine : network.machines) group_representatives.push_back(machine);
    }
    for (const auto& child : network.children) {
      visit(child);
      const std::string rep = representative_of(child);
      if (!rep.empty()) group_representatives.push_back(rep);
    }
    // Children that hang off a *LAN* network (e.g. the sci switch behind
    // the hub2 gateway sci0) need no inter clique: the gateway membership
    // already stitches the levels together. Only structural (routing)
    // nodes link their sibling groups. A gateway can stand for several
    // groups (it sits on each of its zones' networks): it joins once.
    if (network.kind == NetKind::structural && group_representatives.size() >= 2) {
      add_clique(CliqueRole::inter, network.label.empty() ? "root" : network.label,
                 nws::distinct_members(ranked(group_representatives)));
    }
  }

  std::string master_;
  PlannerOptions options_;
  DeploymentPlan plan_;
};

}  // namespace

Result<DeploymentPlan> plan_from_tree(const env::EnvNetwork& root, const std::string& master,
                                      PlannerOptions options) {
  Planner planner(master, options);
  return planner.run(root);
}

Result<DeploymentPlan> plan_deployment(const env::MapResult& map, PlannerOptions options) {
  // Zone masters (the firewall-merge pivots) make natural representatives.
  for (const auto& zone : map.zones) {
    const std::string canonical = map.canonical(zone.master_fqdn);
    if (canonical != map.master_fqdn) {
      options.preferred_representatives.push_back(canonical);
    }
  }
  auto plan = plan_from_tree(map.root, map.master_fqdn, options);
  if (!plan.ok()) return plan;
  // One memory server per site: the primary master plus each secondary
  // zone's master.
  for (const auto& zone : map.zones) {
    const std::string canonical = map.canonical(zone.master_fqdn);
    if (std::find(plan.value().memory_hosts.begin(), plan.value().memory_hosts.end(),
                  canonical) == plan.value().memory_hosts.end()) {
      plan.value().memory_hosts.push_back(canonical);
    }
  }
  return plan;
}

}  // namespace envnws::deploy

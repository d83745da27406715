// The deployment planning algorithm (paper §5.1) — the core contribution:
// derive an NWS deployment plan from the Effective Network View.
#pragma once

#include <string>
#include <vector>

#include "common/result.hpp"
#include "deploy/plan.hpp"
#include "env/env_tree.hpp"
#include "env/mapper.hpp"

namespace envnws::deploy {

struct PlannerOptions {
  /// Split switched cliques larger than this into sub-cliques (0 = never).
  /// Splitting a *switched* network is collision-safe because its pairs
  /// are independent; the sub-cliques are stitched with one shared member.
  std::size_t max_clique_size = 0;
  /// Prefer these machines as network representatives (the firewall
  /// merge pivots are natural choices; the planner also ranks zone
  /// masters first automatically when planning from a MapResult).
  std::vector<std::string> preferred_representatives;
  /// Extension (paper conclusion): plan for host-level locks. Cross-
  /// clique collisions through shared representatives disappear, and
  /// switched cliques get two parallel tokens (one when they have fewer
  /// than four members).
  bool use_host_locks = false;
};

/// Plan from a merged map result. Memory servers are placed on the
/// primary master and on each secondary zone's master (one per site —
/// the "hierarchical monitoring infrastructure" of §5).
Result<DeploymentPlan> plan_deployment(const env::MapResult& map,
                                       PlannerOptions options = {});

/// Plan from a bare effective view (single-zone runs, tests).
Result<DeploymentPlan> plan_from_tree(const env::EnvNetwork& root, const std::string& master,
                                      PlannerOptions options = {});

}  // namespace envnws::deploy

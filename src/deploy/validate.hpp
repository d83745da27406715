// Deployment-constraint validator.
//
// Checks a plan against the ground-truth platform for the four §2.3
// constraints: (1) experiments must not collide — quantified here as the
// worst-case relative measurement error any clique's experiment can
// suffer from a concurrent experiment of another clique (within a clique
// the token ring already serializes); (2) cliques stay small enough for
// a given re-measurement frequency; (3) completeness — every host pair is
// answerable directly, by substitution, or by aggregation; (4)
// intrusiveness — experiments and bytes injected per full cycle.
#pragma once

#include <string>
#include <vector>

#include "deploy/plan.hpp"
#include "simnet/network.hpp"

namespace envnws::deploy {

struct CollisionFinding {
  std::string clique_a;
  std::string pair_a;
  std::string clique_b;
  std::string pair_b;
  /// Relative error the (a) experiment suffers when (b) runs concurrently.
  double worst_error = 0.0;
};

struct ValidationReport {
  // Constraint 1 — collision-freedom.
  bool collision_free = true;
  /// Cross-clique experiment pairs whose concurrent error exceeds the
  /// tolerance. Collected in enumeration order (clique i, clique j != i,
  /// i's pairs, j's pairs, plan order), then `std::sort`ed by
  /// worst_error, worst first. The sort is unstable: ties land where it
  /// puts them given that input order, which is what makes the report
  /// reproducible byte for byte.
  std::vector<CollisionFinding> collisions;
  double worst_collision_error = 0.0;

  // Constraint 2 — scalability.
  std::size_t max_clique_size = 0;
  /// Worst (longest) full-cycle time across cliques: how stale a series
  /// can get.
  double worst_cycle_time_s = 0.0;

  // Constraint 3 — completeness.
  bool complete = true;
  std::vector<std::pair<std::string, std::string>> uncovered_pairs;

  // Constraint 4 — intrusiveness.
  std::uint64_t experiments_per_cycle = 0;
  std::int64_t bytes_per_cycle = 0;

  [[nodiscard]] bool ok() const { return collision_free && complete; }
  [[nodiscard]] std::string render() const;
};

struct ValidatorOptions {
  /// Concurrent-measurement error above this counts as a collision. The
  /// paper's hard constraint is zero sharing; hierarchical deployments
  /// accept bounded cross-level interference (a 100 Mbps LAN experiment
  /// barely dents a WAN experiment capped at 10 Mbps), so the tolerance
  /// is configurable.
  double collision_tolerance = 0.05;
};

[[nodiscard]] ValidationReport validate_plan(const DeploymentPlan& plan,
                                             simnet::Network& net,
                                             ValidatorOptions options = {});

}  // namespace envnws::deploy

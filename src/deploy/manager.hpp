// The NWS manager (paper §5.2).
//
// "We realized a NWS manager program using a configuration file shared
// across all involved hosts and applying the local parts on each host."
// This module is that manager: it serializes a DeploymentPlan into a
// single shared configuration file, extracts the per-host process list
// (what one host's manager instance would launch), and applies the plan
// onto a simulated platform by instantiating the NWS processes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "deploy/plan.hpp"
#include "nws/system.hpp"

namespace envnws::deploy {

/// Serialize the plan into the shared configuration file format.
[[nodiscard]] std::string generate_config(const DeploymentPlan& plan);

/// What a single host's manager instance must start locally.
struct HostAssignment {
  std::string host;
  bool nameserver = false;
  bool forecaster = false;
  bool memory = false;
  bool host_sensor = false;
  std::vector<std::string> cliques;  ///< clique names this host joins

  [[nodiscard]] std::string render() const;
};

[[nodiscard]] HostAssignment local_assignment(const DeploymentPlan& plan,
                                              const std::string& host);

/// Launch every process of the plan on the simulated platform: the
/// nameserver, forecaster and memories, one clique per planned clique
/// and a host sensor on every host. The returned system is started
/// (cliques circulating, sensors ticking). A clique whose period is not
/// finite and positive is an invalid_argument error: its token would
/// never advance the simulated clock.
Result<std::unique_ptr<nws::NwsSystem>> apply_plan(const DeploymentPlan& plan,
                                                   simnet::Network& net);

}  // namespace envnws::deploy

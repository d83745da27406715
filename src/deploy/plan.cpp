#include "deploy/plan.hpp"

#include <sstream>

#include "common/strings.hpp"

namespace envnws::deploy {

const char* to_string(CliqueRole role) {
  switch (role) {
    case CliqueRole::shared_pair: return "shared-pair";
    case CliqueRole::switched_all: return "switched-all";
    case CliqueRole::inter: return "inter";
  }
  return "?";
}

std::uint64_t DeploymentPlan::experiments_per_cycle() const {
  std::uint64_t total = 0;
  for (const auto& clique : cliques) {
    const auto n = static_cast<std::uint64_t>(clique.members.size());
    if (n >= 2) total += n * (n - 1);
  }
  return total;
}

std::string DeploymentPlan::render() const {
  std::ostringstream out;
  out << "NWS deployment plan (master: " << master << ")\n";
  out << "  name server : " << nameserver_host << "\n";
  out << "  forecaster  : " << forecaster_host << "\n";
  out << "  memories    : " << strings::join(memory_hosts, ", ") << "\n";
  if (use_host_locks) out << "  host locks  : enabled (paper-conclusion extension)\n";
  out << "  cliques:\n";
  for (const auto& clique : cliques) {
    out << "    [" << clique.name << "] (" << to_string(clique.role) << ", net '"
        << clique.network_label << "', period " << clique.period_s
        << "s): " << strings::join(clique.members, ", ") << "\n";
  }
  if (!substitutions.empty()) {
    out << "  substitutions:\n";
    for (const auto& sub : substitutions) {
      out << "    any pair of {" << strings::join(sub.covered, ", ") << "} -> ("
          << sub.rep_a << ", " << sub.rep_b << ")\n";
    }
  }
  out << "  experiments per cycle: " << experiments_per_cycle() << "\n";
  return out.str();
}

}  // namespace envnws::deploy

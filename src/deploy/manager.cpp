#include "deploy/manager.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/strings.hpp"
#include "deploy/query.hpp"

namespace envnws::deploy {

namespace {

std::string join_list(const std::vector<std::string>& values) {
  return strings::join(values, ", ");
}

bool valid_period(double period_s) { return std::isfinite(period_s) && period_s > 0.0; }

}  // namespace

std::string generate_config(const DeploymentPlan& plan) {
  std::ostringstream out;
  out << "# NWS deployment configuration (generated by envnws)\n";
  out << "# One file shared by all hosts; each host's manager applies its"
         " local part.\n\n";
  out << "[global]\n";
  out << "master = " << plan.master << "\n";
  out << "nameserver = " << plan.nameserver_host << "\n";
  out << "forecaster = " << plan.forecaster_host << "\n";
  out << "memory = " << join_list(plan.memory_hosts) << "\n";
  out << "hosts = " << join_list(plan.hosts) << "\n";
  if (plan.use_host_locks) out << "hostlocks = true\n";
  for (const auto& clique : plan.cliques) {
    out << "\n[clique " << clique.name << "]\n";
    out << "role = " << to_string(clique.role) << "\n";
    out << "network = " << clique.network_label << "\n";
    out << "period = " << strings::format_double(clique.period_s, 3) << "\n";
    out << "probe = " << clique.probe_bytes << "\n";
    if (clique.parallel_tokens > 1) out << "tokens = " << clique.parallel_tokens << "\n";
    out << "members = " << join_list(clique.members) << "\n";
  }
  for (const auto& substitution : plan.substitutions) {
    out << "\n[substitution " << substitution.network_label << "]\n";
    out << "representative = " << substitution.rep_a << ", " << substitution.rep_b << "\n";
    out << "covers = " << join_list(substitution.covered) << "\n";
  }
  return out.str();
}

HostAssignment local_assignment(const DeploymentPlan& plan, const std::string& host) {
  HostAssignment assignment;
  assignment.host = host;
  assignment.nameserver = plan.nameserver_host == host;
  assignment.forecaster = plan.forecaster_host == host;
  assignment.memory = std::find(plan.memory_hosts.begin(), plan.memory_hosts.end(), host) !=
                      plan.memory_hosts.end();
  assignment.host_sensor =
      std::find(plan.hosts.begin(), plan.hosts.end(), host) != plan.hosts.end();
  for (const auto& clique : plan.cliques) {
    if (std::find(clique.members.begin(), clique.members.end(), host) !=
        clique.members.end()) {
      assignment.cliques.push_back(clique.name);
    }
  }
  return assignment;
}

std::string HostAssignment::render() const {
  std::ostringstream out;
  out << host << ":";
  if (nameserver) out << " nameserver";
  if (forecaster) out << " forecaster";
  if (memory) out << " memory";
  if (host_sensor) out << " sensors";
  if (!cliques.empty()) out << " cliques{" << strings::join(cliques, ", ") << "}";
  return out.str();
}

Result<std::unique_ptr<nws::NwsSystem>> apply_plan(const DeploymentPlan& plan,
                                                   simnet::Network& net) {
  for (const auto& planned : plan.cliques) {
    if (!valid_period(planned.period_s)) {
      return make_error(ErrorCode::invalid_argument,
                        "clique '" + planned.name + "' has period " +
                            strings::format_double(planned.period_s, 3) +
                            " s; it must be finite and > 0");
    }
  }
  const auto resolve = topology_resolver(net.topology());
  const auto check = [&net](const std::string& node_name) -> Status {
    if (!net.topology().find_by_name(node_name).ok()) {
      return make_error(ErrorCode::not_found,
                        "plan references unknown host '" + node_name + "'");
    }
    return {};
  };

  nws::SystemConfig config;
  config.nameserver_host = resolve(plan.nameserver_host);
  config.forecaster_host = resolve(plan.forecaster_host);
  for (const auto& memory : plan.memory_hosts) config.memory_hosts.push_back(resolve(memory));
  config.enable_host_locks = plan.use_host_locks;
  if (Status status = check(config.nameserver_host); !status.ok()) return status.error();
  if (Status status = check(config.forecaster_host); !status.ok()) return status.error();
  for (const auto& memory : config.memory_hosts) {
    if (Status status = check(memory); !status.ok()) return status.error();
  }

  auto system = std::make_unique<nws::NwsSystem>(net, config);
  for (const auto& planned : plan.cliques) {
    nws::CliqueSpec spec;
    spec.name = planned.name;
    spec.period_s = planned.period_s;
    spec.bandwidth_probe_bytes = planned.probe_bytes > 0 ? planned.probe_bytes : kLanProbeBytes;
    spec.parallel_tokens = planned.parallel_tokens;
    for (const auto& member : planned.members) {
      const std::string node_name = resolve(member);
      if (Status status = check(node_name); !status.ok()) return status.error();
      spec.members.push_back(net.topology().find_by_name(node_name).value());
    }
    system->add_clique(spec);
  }
  for (const auto& host : plan.hosts) {
    const std::string node_name = resolve(host);
    if (Status status = check(node_name); !status.ok()) return status.error();
    system->add_host_sensor(node_name);
  }
  system->start();
  return system;
}

}  // namespace envnws::deploy

#include "deploy/manager.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/parse.hpp"
#include "common/strings.hpp"
#include "deploy/query.hpp"

namespace envnws::deploy {

namespace {

std::string join_list(const std::vector<std::string>& values) {
  return strings::join(values, ", ");
}

std::vector<std::string> parse_list(const std::string& text) {
  std::vector<std::string> out;
  for (const auto& piece : strings::split(text, ',')) {
    const std::string trimmed = strings::trim(piece);
    if (!trimmed.empty()) out.push_back(trimmed);
  }
  return out;
}

bool valid_period(double period_s) { return std::isfinite(period_s) && period_s > 0.0; }

Result<CliqueRole> role_from_string(const std::string& text) {
  if (text == "shared-pair") return CliqueRole::shared_pair;
  if (text == "switched-all") return CliqueRole::switched_all;
  if (text == "inter") return CliqueRole::inter;
  return make_error(ErrorCode::protocol, "unknown clique role '" + text + "'");
}

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

Result<DeploymentPlan> parse_config(const std::string& text) {
  DeploymentPlan plan;
  std::string section;
  std::string section_arg;
  PlannedClique* clique = nullptr;
  Substitution* substitution = nullptr;

  for (const auto& raw_line : strings::split(text, '\n')) {
    const std::string line = strings::trim(raw_line);
    if (line.empty() || line.front() == '#') continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        return make_error(ErrorCode::protocol, "malformed section header: " + line);
      }
      const std::string header = strings::trim(line.substr(1, line.size() - 2));
      const auto space = header.find(' ');
      section = space == std::string::npos ? header : header.substr(0, space);
      section_arg = space == std::string::npos ? "" : strings::trim(header.substr(space + 1));
      clique = nullptr;
      substitution = nullptr;
      if (section == "clique") {
        plan.cliques.emplace_back();
        clique = &plan.cliques.back();
        clique->name = section_arg;
      } else if (section == "substitution") {
        plan.substitutions.emplace_back();
        substitution = &plan.substitutions.back();
        substitution->network_label = section_arg;
      } else if (section != "global") {
        return make_error(ErrorCode::protocol, "unknown section '" + section + "'");
      }
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      return make_error(ErrorCode::protocol, "expected key = value: " + line);
    }
    const std::string key = strings::trim(line.substr(0, eq));
    const std::string value = strings::trim(line.substr(eq + 1));

    if (section == "global") {
      if (key == "master") plan.master = value;
      else if (key == "nameserver") plan.nameserver_host = value;
      else if (key == "forecaster") plan.forecaster_host = value;
      else if (key == "memory") plan.memory_hosts = parse_list(value);
      else if (key == "hosts") plan.hosts = parse_list(value);
      else if (key == "hostlocks") plan.use_host_locks = (value == "true" || value == "1");
      else return make_error(ErrorCode::protocol, "unknown global key '" + key + "'");
    } else if (section == "clique" && clique != nullptr) {
      if (key == "role") {
        auto role = role_from_string(value);
        if (!role.ok()) return role.error();
        clique->role = role.value();
      } else if (key == "network") {
        clique->network_label = value;
      } else if (key == "period") {
        // Guarded numeric parsing (common/parse.hpp): a hand-edited
        // config with "period = fast" must be a protocol error, not a
        // std::stod exception out of parse_config. A zero, negative or
        // non-finite period would hang the token ring: malformed too.
        const auto period = parse::to_double(value);
        if (!period.has_value() || !valid_period(*period)) {
          return make_error(ErrorCode::protocol, "bad clique period '" + value + "'");
        }
        clique->period_s = *period;
      } else if (key == "probe") {
        const auto probe = parse::to_i64(value);
        if (!probe.has_value() || *probe <= 0) {
          return make_error(ErrorCode::protocol, "bad clique probe size '" + value + "'");
        }
        clique->probe_bytes = *probe;
      } else if (key == "tokens") {
        const auto tokens = parse::to_u64(value);
        if (!tokens.has_value()) {
          return make_error(ErrorCode::protocol, "bad clique token count '" + value + "'");
        }
        clique->parallel_tokens = static_cast<std::size_t>(*tokens);
      } else if (key == "members") {
        clique->members = parse_list(value);
      } else {
        return make_error(ErrorCode::protocol, "unknown clique key '" + key + "'");
      }
    } else if (section == "substitution" && substitution != nullptr) {
      if (key == "representative") {
        const auto reps = parse_list(value);
        if (reps.size() != 2) {
          return make_error(ErrorCode::protocol, "representative needs two names");
        }
        substitution->rep_a = reps[0];
        substitution->rep_b = reps[1];
      } else if (key == "covers") {
        substitution->covered = parse_list(value);
      } else {
        return make_error(ErrorCode::protocol, "unknown substitution key '" + key + "'");
      }
    } else {
      return make_error(ErrorCode::protocol, "key outside any section: " + line);
    }
  }
  if (plan.master.empty()) {
    return make_error(ErrorCode::protocol, "configuration lacks a master");
  }
  return plan;
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

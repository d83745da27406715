#include "env/env_tree.hpp"

#include <algorithm>
#include <utility>

#include "common/parse.hpp"
#include "common/strings.hpp"
#include "common/units.hpp"

namespace envnws::env {

const char* to_string(NetKind kind) {
  switch (kind) {
    case NetKind::structural: return "structural";
    case NetKind::shared: return "shared";
    case NetKind::switched: return "switched";
    case NetKind::inconclusive: return "inconclusive";
  }
  return "?";
}

std::vector<std::string> EnvNetwork::all_machines() const {
  std::vector<std::string> out = machines;
  for (const auto& child : children) {
    const auto nested = child.all_machines();
    out.insert(out.end(), nested.begin(), nested.end());
  }
  return out;
}

const EnvNetwork* EnvNetwork::find_containing(const std::string& machine) const {
  for (const auto& child : children) {
    if (const EnvNetwork* hit = child.find_containing(machine)) return hit;
  }
  if (std::find(machines.begin(), machines.end(), machine) != machines.end()) return this;
  return nullptr;
}

EnvNetwork* EnvNetwork::find_containing(const std::string& machine) {
  return const_cast<EnvNetwork*>(std::as_const(*this).find_containing(machine));
}

std::vector<const EnvNetwork*> EnvNetwork::lan_segments() const {
  std::vector<const EnvNetwork*> out;
  if (kind != NetKind::structural) out.push_back(this);
  for (const auto& child : children) {
    const auto nested = child.lan_segments();
    out.insert(out.end(), nested.begin(), nested.end());
  }
  return out;
}

std::vector<std::string> EnvNetwork::gateways() const {
  std::vector<std::string> out;
  if (!gateway.empty()) out.push_back(gateway);
  for (const auto& child : children) {
    for (auto& name : child.gateways()) {
      if (std::find(out.begin(), out.end(), name) == out.end()) out.push_back(name);
    }
  }
  return out;
}

namespace {

gridml::NetworkType gridml_type(NetKind kind) {
  switch (kind) {
    case NetKind::shared: return gridml::NetworkType::env_shared;
    case NetKind::switched: return gridml::NetworkType::env_switched;
    case NetKind::inconclusive: return gridml::NetworkType::env_inconclusive;
    case NetKind::structural: return gridml::NetworkType::structural;
  }
  return gridml::NetworkType::structural;
}

NetKind kind_from_gridml(gridml::NetworkType type) {
  switch (type) {
    case gridml::NetworkType::env_shared: return NetKind::shared;
    case gridml::NetworkType::env_switched: return NetKind::switched;
    case gridml::NetworkType::env_inconclusive: return NetKind::inconclusive;
    case gridml::NetworkType::structural: return NetKind::structural;
  }
  return NetKind::structural;
}

}  // namespace

gridml::NetworkNode EnvNetwork::to_gridml() const {
  gridml::NetworkNode node;
  node.type = gridml_type(kind);
  node.label_name = label;
  node.label_ip = label_ip;
  if (base_bw_bps > 0.0) {
    node.properties.push_back(gridml::Property{
        "ENV_base_BW", strings::format_double(units::to_mbps(base_bw_bps), 2), "Mbps"});
  }
  if (base_local_bw_bps > 0.0) {
    node.properties.push_back(gridml::Property{
        "ENV_base_local_BW", strings::format_double(units::to_mbps(base_local_bw_bps), 2),
        "Mbps"});
  }
  if (base_reverse_bw_bps > 0.0) {
    node.properties.push_back(gridml::Property{
        "ENV_base_reverse_BW",
        strings::format_double(units::to_mbps(base_reverse_bw_bps), 2), "Mbps"});
  }
  if (route_asymmetric) {
    node.properties.push_back(gridml::Property{"ENV_route_asymmetric", "true", ""});
  }
  if (!gateway.empty()) {
    node.properties.push_back(gridml::Property{"ENV_gateway", gateway, ""});
  }
  node.machine_names = machines;
  for (const auto& child : children) node.children.push_back(child.to_gridml());
  return node;
}

Result<EnvNetwork> EnvNetwork::from_gridml(const gridml::NetworkNode& node) {
  EnvNetwork network;
  network.kind = kind_from_gridml(node.type);
  network.label = node.label_name;
  network.label_ip = node.label_ip;
  // Guarded parse (common/parse.hpp): a published document with
  // "ENV_base_BW = garbage" used to throw a bare std::stod exception
  // through load_map_from_gridml and kill the process.
  const auto bandwidth_property = [&node](const char* name) -> Result<double> {
    const auto text = node.property(name);
    if (!text.has_value()) return 0.0;
    const auto mbps = parse::to_double(*text);
    if (!mbps.has_value()) {
      return make_error(ErrorCode::protocol,
                        std::string("bad ") + name + " '" + *text + "' in GridML network '" +
                            node.label_name + "'");
    }
    return units::mbps(*mbps);
  };
  const auto base = bandwidth_property("ENV_base_BW");
  if (!base.ok()) return base.error();
  network.base_bw_bps = base.value();
  const auto local = bandwidth_property("ENV_base_local_BW");
  if (!local.ok()) return local.error();
  network.base_local_bw_bps = local.value();
  const auto reverse = bandwidth_property("ENV_base_reverse_BW");
  if (!reverse.ok()) return reverse.error();
  network.base_reverse_bw_bps = reverse.value();
  network.route_asymmetric = node.property("ENV_route_asymmetric").has_value();
  if (const auto gw = node.property("ENV_gateway")) network.gateway = *gw;
  network.machines = node.machine_names;
  for (const auto& child : node.children) {
    auto nested = from_gridml(child);
    if (!nested.ok()) return nested.error();
    network.children.push_back(std::move(nested.value()));
  }
  return network;
}

Result<EnvNetwork> published_view(const gridml::GridDoc& doc) {
  if (doc.networks.empty()) {
    return make_error(ErrorCode::invalid_argument, "GridML document carries no NETWORK tree");
  }
  return EnvNetwork::from_gridml(doc.networks.back());
}

void canonicalize(EnvNetwork& network,
                  const std::function<std::string(const std::string&)>& canon) {
  for (auto& machine : network.machines) machine = canon(machine);
  if (!network.gateway.empty()) network.gateway = canon(network.gateway);
  for (auto& child : network.children) canonicalize(child, canon);
}

namespace {

/// Depth-first, one line per network plus one per machine list, all
/// appended to one string.
void render_network(const EnvNetwork& network, std::size_t depth, std::string& out) {
  const std::size_t indent = 2 * depth;
  out.append(indent, ' ');
  if (network.kind == NetKind::structural) {
    out += "* ";
    out += network.label.empty() ? "(net)" : network.label;
    if (!network.label_ip.empty() && network.label_ip != network.label) {
      out += " [";
      out += network.label_ip;
      out += ']';
    }
  } else {
    out += "+ ";
    out += network.label.empty() ? "(lan)" : network.label;
    out += " <";
    out += to_string(network.kind);
    out += '>';
    const auto bandwidth = [&out](const char* name, double bps) {
      if (!(bps > 0.0)) return;
      out += name;
      out += strings::format_double(units::to_mbps(bps), 2);
      out += "Mbps";
    };
    bandwidth(" base=", network.base_bw_bps);
    bandwidth(" local=", network.base_local_bw_bps);
    bandwidth(" reverse=", network.base_reverse_bw_bps);
    if (network.route_asymmetric) out += " [ASYMMETRIC ROUTE]";
  }
  if (!network.gateway.empty()) {
    out += " via ";
    out += network.gateway;
  }
  out += '\n';
  if (!network.machines.empty()) {
    out.append(indent, ' ');
    out += "    machines: ";
    for (std::size_t i = 0; i < network.machines.size(); ++i) {
      if (i > 0) out += ", ";
      out += network.machines[i];
    }
    out += '\n';
  }
  for (const auto& child : network.children) render_network(child, depth + 1, out);
}

}  // namespace

std::string render_effective(const EnvNetwork& root) {
  std::string out;
  render_network(root, 0, out);
  return out;
}

}  // namespace envnws::env

#include "env/env_tree.hpp"

#include <algorithm>
#include <optional>
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

// ENV's GridML vocabulary (paper §4): NETWORK types `Structural`,
// `ENV_Shared`, `ENV_Switched` and `ENV_Inconclusive`; PROPERTYs
// `ENV_base_BW`, `ENV_base_local_BW` and `ENV_base_reverse_BW` (Mbit/s),
// `ENV_route_asymmetric` (`true` / `false`) and `ENV_gateway`.
const char* type_name(NetKind kind) {
  switch (kind) {
    case NetKind::shared: return "ENV_Shared";
    case NetKind::switched: return "ENV_Switched";
    case NetKind::inconclusive: return "ENV_Inconclusive";
    case NetKind::structural: return "Structural";
  }
  return "Structural";
}

Result<NetKind> kind_from_type(const std::string& type) {
  if (type == "Structural" || type.empty()) return NetKind::structural;
  if (type == "ENV_Shared") return NetKind::shared;
  if (type == "ENV_Switched") return NetKind::switched;
  if (type == "ENV_Inconclusive") return NetKind::inconclusive;
  return make_error(ErrorCode::protocol, "unknown NETWORK type '" + type + "'");
}

}  // namespace

gridml::XmlElement EnvNetwork::to_xml() const {
  gridml::XmlElement element("NETWORK");
  element.set_attribute("type", type_name(kind));
  if (!label.empty() || !label_ip.empty()) {
    gridml::XmlElement label_el("LABEL");
    if (!label_ip.empty()) label_el.set_attribute("ip", label_ip);
    if (!label.empty()) label_el.set_attribute("name", label);
    element.add_child(std::move(label_el));
  }
  const auto property = [&element](const char* name, std::string value, const char* units) {
    element.add_child(gridml::property_to_xml(gridml::Property{name, std::move(value), units}));
  };
  const auto bandwidth = [&property](const char* name, double bps) {
    if (bps > 0.0) property(name, strings::format_double(units::to_mbps(bps), 2), "Mbps");
  };
  bandwidth("ENV_base_BW", base_bw_bps);
  bandwidth("ENV_base_local_BW", base_local_bw_bps);
  bandwidth("ENV_base_reverse_BW", base_reverse_bw_bps);
  if (route_asymmetric) property("ENV_route_asymmetric", "true", "");
  if (!gateway.empty()) property("ENV_gateway", gateway, "");
  for (const auto& machine : machines) {
    gridml::XmlElement machine_el("MACHINE");
    machine_el.set_attribute("name", machine);
    element.add_child(std::move(machine_el));
  }
  for (const auto& child : children) element.add_child(child.to_xml());
  return element;
}

Result<EnvNetwork> EnvNetwork::from_xml(const gridml::XmlElement& element) {
  EnvNetwork network;
  const auto kind = kind_from_type(element.attribute("type"));
  if (!kind.ok()) return kind.error();
  network.kind = kind.value();
  if (const gridml::XmlElement* label = element.first_child("LABEL")) {
    network.label = label->attribute("name");
    network.label_ip = label->attribute("ip");
  }
  const auto property = [&element](const char* name) -> std::optional<std::string> {
    for (const auto& child : element.children()) {
      if (child.name() == "PROPERTY" && child.attribute("name") == name) {
        return child.attribute("value");
      }
    }
    return std::nullopt;
  };
  const auto bad_property = [&network](const char* name, const std::string& text) {
    return make_error(ErrorCode::protocol, std::string("bad ") + name + " '" + text +
                                               "' in GridML network '" + network.label + "'");
  };
  // Guarded parse (common/parse.hpp): published documents come from
  // outside the program, so a bad number is a Result error, not a throw.
  const auto bandwidth = [&](const char* name, double& bps) -> Status {
    const auto text = property(name);
    if (!text.has_value()) return {};
    const auto mbps = parse::to_double(*text);
    if (!mbps.has_value()) return bad_property(name, *text);
    bps = units::mbps(*mbps);
    return {};
  };
  for (const Status& status : {bandwidth("ENV_base_BW", network.base_bw_bps),
                               bandwidth("ENV_base_local_BW", network.base_local_bw_bps),
                               bandwidth("ENV_base_reverse_BW", network.base_reverse_bw_bps)}) {
    if (!status.ok()) return status.error();
  }
  if (const auto flag = property("ENV_route_asymmetric")) {
    if (*flag != "true" && *flag != "false") return bad_property("ENV_route_asymmetric", *flag);
    network.route_asymmetric = *flag == "true";
  }
  if (const auto gw = property("ENV_gateway")) network.gateway = *gw;
  for (const auto& child : element.children()) {
    if (child.name() == "MACHINE") {
      // Members are references by name, through a LABEL or an attribute.
      const gridml::XmlElement* label = child.first_child("LABEL");
      network.machines.push_back(label != nullptr ? label->attribute("name")
                                                  : child.attribute("name"));
    } else if (child.name() == "NETWORK") {
      auto nested = from_xml(child);
      if (!nested.ok()) return nested.error();
      network.children.push_back(std::move(nested.value()));
    }
  }
  return network;
}

Result<EnvNetwork> published_view(const gridml::GridDoc& doc) {
  if (doc.networks.empty()) {
    return make_error(ErrorCode::invalid_argument, "GridML document carries no NETWORK tree");
  }
  for (std::size_t i = 0; i + 1 < doc.networks.size(); ++i) {
    if (auto earlier = EnvNetwork::from_xml(doc.networks[i]); !earlier.ok()) {
      return earlier.error();
    }
  }
  return EnvNetwork::from_xml(doc.networks.back());
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

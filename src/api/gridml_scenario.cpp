#include "api/gridml_scenario.hpp"

#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/strings.hpp"
#include "common/units.hpp"
#include "env/env_tree.hpp"
#include "simnet/address.hpp"
#include "simnet/topology.hpp"

namespace envnws::api {

namespace {

using simnet::Ipv4;
using simnet::NodeId;

constexpr double kDefaultBwBps = 100e6;

/// Builds the topology from the effective-view tree. Names, addresses
/// and traversal order are fully deterministic so the same document
/// always yields the same platform.
class ViewBuilder {
 public:
  ViewBuilder(const gridml::GridDoc& doc, simnet::Scenario& scenario)
      : names_(doc.name_index()), scenario_(scenario), topo_(scenario.topology) {}

  Status build(const env::EnvNetwork& root) {
    const NodeId root_device = add_device(root);
    if (topo_.node(root_device).kind != simnet::NodeKind::router) {
      // Traceroutes need somewhere to stop: front the view with an edge
      // router when the root itself is a LAN segment.
      const NodeId edge = topo_.add_router("edge", "edge.view", next_router_ip());
      topo_.connect(edge, root_device, segment_bw(root), 100e-6);
      topo_.set_edge_router(edge);
    } else {
      topo_.set_edge_router(root_device);
    }
    if (auto status = attach(root, root_device); !status.ok()) return status;
    if (scenario_.master.empty()) {
      return make_error(ErrorCode::invalid_argument,
                        "GridML network tree names no machines to simulate");
    }
    return {};
  }

 private:
  /// Bandwidth of the medium itself (what members share locally).
  static double segment_bw(const env::EnvNetwork& net) {
    if (net.base_local_bw_bps > 0.0) return net.base_local_bw_bps;
    if (net.base_bw_bps > 0.0) return net.base_bw_bps;
    return kDefaultBwBps;
  }
  /// Bandwidth of the uplink towards the parent (what the master saw).
  static double uplink_bw(const env::EnvNetwork& net) {
    if (net.base_bw_bps > 0.0) return net.base_bw_bps;
    return segment_bw(net);
  }

  Ipv4 next_router_ip() {
    const int n = router_count_++;
    return Ipv4(10, 250, static_cast<std::uint8_t>(n / 250),
                static_cast<std::uint8_t>(1 + n % 250));
  }

  NodeId add_device(const env::EnvNetwork& net) {
    const std::string name = "net" + std::to_string(device_count_++);
    switch (net.kind) {
      case env::NetKind::shared:
        return topo_.add_hub(name, segment_bw(net));
      case env::NetKind::switched:
      case env::NetKind::inconclusive:
        return topo_.add_switch(name);
      case env::NetKind::structural:
        break;
    }
    // The published hop name doubles as the router's reverse-DNS name,
    // unless another router already claimed it (then DNS "fails", which
    // ENV handles anyway).
    std::string fqdn = net.label;
    if (fqdn.empty() || !used_names_.insert(fqdn).second) fqdn.clear();
    return topo_.add_router(name, fqdn, router_ip(net));
  }

  Ipv4 router_ip(const env::EnvNetwork& net) {
    if (const auto parsed = Ipv4::parse(net.label_ip); parsed.ok()) return parsed.value();
    return next_router_ip();
  }

  std::string unique_short_name(const std::string& fqdn) {
    const auto labels = strings::split_nonempty(fqdn, '.');
    std::string base = labels.empty() ? fqdn : labels.front();
    if (base.empty()) base = "host";
    std::string candidate = base;
    for (int suffix = 2; used_names_.count(candidate) > 0; ++suffix) {
      candidate = base + "-" + std::to_string(suffix);
    }
    used_names_.insert(candidate);
    return candidate;
  }

  /// The machine's published address, or the next synthetic one.
  Ipv4 host_ip(const gridml::Machine* machine) {
    if (machine != nullptr) {
      if (const auto parsed = Ipv4::parse(machine->ip); parsed.ok()) return parsed.value();
    }
    const int n = host_count_++;
    return Ipv4(172, 16, static_cast<std::uint8_t>(n / 250),
                static_cast<std::uint8_t>(1 + n % 250));
  }

  Status attach(const env::EnvNetwork& net, NodeId device) {
    simnet::GroundTruthNet truth;
    truth.kind = net.kind == env::NetKind::shared ? simnet::GroundTruthNet::Kind::shared
                                                  : simnet::GroundTruthNet::Kind::switched;
    truth.local_bw_bps = segment_bw(net);
    for (const auto& machine_name : net.machines) {
      if (hosts_.count(machine_name) > 0) {
        return make_error(ErrorCode::invalid_argument,
                          "machine '" + machine_name +
                              "' appears on two networks of the GridML view");
      }
      const std::string short_name = unique_short_name(machine_name);
      const gridml::Machine* machine = names_.find(machine_name);
      const NodeId host = topo_.add_host(short_name, machine_name, host_ip(machine));
      if (machine != nullptr) {
        for (const auto& property : machine->properties) {
          topo_.set_property(host, property.name, property.value);
        }
      }
      topo_.connect(host, device, segment_bw(net), 50e-6);
      hosts_[machine_name] = host;
      truth.member_names.push_back(short_name);
      if (scenario_.master.empty()) scenario_.master = short_name;
    }
    if (net.kind != env::NetKind::structural && truth.member_names.size() >= 2) {
      scenario_.ground_truth.push_back(std::move(truth));
    }
    for (const auto& child : net.children) {
      const NodeId child_device = add_device(child);
      topo_.connect(device, child_device, uplink_bw(child), 100e-6);
      if (auto status = attach(child, child_device); !status.ok()) return status;
    }
    return {};
  }

  const gridml::NameIndex names_;
  simnet::Scenario& scenario_;
  simnet::Topology& topo_;
  std::map<std::string, NodeId> hosts_;
  std::set<std::string> used_names_;
  int device_count_ = 0;
  int router_count_ = 0;
  int host_count_ = 0;
};

}  // namespace

Result<simnet::Scenario> scenario_from_effective_view(const gridml::GridDoc& doc) {
  auto root = env::published_view(doc);
  if (!root.ok()) return root.error();
  simnet::Scenario scenario;
  scenario.name = doc.label.empty() ? "gridml-view" : doc.label;
  scenario.description = "platform synthesized from a published effective network view";
  ViewBuilder builder(doc, scenario);
  if (auto status = builder.build(root.value()); !status.ok()) return status.error();
  if (auto status = scenario.topology.validate(); !status.ok()) {
    return make_error(ErrorCode::invalid_argument,
                      "GridML view yields an unusable platform: " + status.error().message);
  }
  return scenario;
}

Result<simnet::Scenario> scenario_from_gridml_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return make_error(ErrorCode::not_found, "cannot read GridML file '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto doc = gridml::GridDoc::parse(text.str());
  if (!doc.ok()) {
    return make_error(doc.error().code, "GridML file '" + path + "': " + doc.error().message);
  }
  return scenario_from_effective_view(doc.value());
}

}  // namespace envnws::api

#include "simnet/topology.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace envnws::simnet {

namespace {
// Deterministic per-bucket standard normal: hash the (seed, bucket) pair
// through SplitMix64 and Box-Muller the resulting uniforms. This gives the
// LoadModel value-noise that is a pure function of time.
double hashed_normal(std::uint64_t seed, std::int64_t bucket) {
  auto mix = [](std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  const std::uint64_t h1 = mix(seed ^ static_cast<std::uint64_t>(bucket));
  const std::uint64_t h2 = mix(h1);
  const double u1 =
      (static_cast<double>(h1 >> 11) + 0.5) * 0x1.0p-53;  // (0,1)
  const double u2 = static_cast<double>(h2 >> 11) * 0x1.0p-53;  // [0,1)
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

/// Positive and finite; NaN fails the `c > 0.0` test.
bool usable_capacity(double c) { return c > 0.0 && std::isfinite(c); }

/// Non-negative and finite, as Dijkstra needs; NaN fails `w >= 0.0`.
bool usable_weight(double w) { return w >= 0.0 && std::isfinite(w); }

}  // namespace

double LoadModel::at(double t) const {
  double v = base;
  if (amplitude != 0.0 && period_s > 0.0) {
    v += amplitude * std::sin(2.0 * std::numbers::pi * t / period_s + phase);
  }
  if (noise_sigma > 0.0 && noise_bucket_s > 0.0) {
    const auto bucket = static_cast<std::int64_t>(std::floor(t / noise_bucket_s));
    v += noise_sigma * hashed_normal(seed, bucket);
  }
  return std::max(0.0, v);
}

NodeId Topology::add_node(NodeKind kind, const std::string& name, const std::string& fqdn,
                          Ipv4 ip) {
  Node node;
  node.id = NodeId(static_cast<NodeId::underlying_type>(nodes_.size()));
  node.kind = kind;
  node.name = name;
  node.fqdn = fqdn;
  node.ip = ip;
  if (kind != NodeKind::host) node.zones.clear();
  by_name_.emplace(name, node.id);
  if (kind == NodeKind::host && !fqdn.empty()) host_by_fqdn_.emplace(fqdn, node.id);
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

NodeId Topology::add_host(const std::string& name, const std::string& fqdn, Ipv4 ip) {
  return add_node(NodeKind::host, name, fqdn, ip);
}

NodeId Topology::add_hub(const std::string& name, double capacity_bps) {
  const NodeId id = add_node(NodeKind::hub, name, "", Ipv4());
  nodes_[id.index()].hub_capacity_bps = capacity_bps;
  return id;
}

NodeId Topology::add_switch(const std::string& name) {
  return add_node(NodeKind::switch_, name, "", Ipv4());
}

NodeId Topology::add_router(const std::string& name, const std::string& fqdn, Ipv4 ip,
                            RouterPolicy policy) {
  const NodeId id = add_node(NodeKind::router, name, fqdn, ip);
  nodes_[id.index()].router = policy;
  return id;
}

LinkId Topology::connect(NodeId a, NodeId b, double bw_bps, double latency_s,
                         const std::string& label) {
  return connect_directional(a, b, bw_bps, bw_bps, latency_s, label);
}

LinkId Topology::connect_directional(NodeId a, NodeId b, double bw_ab_bps, double bw_ba_bps,
                                     double latency_s, const std::string& label) {
  Link link;
  link.id = LinkId(static_cast<LinkId::underlying_type>(links_.size()));
  link.a = a;
  link.b = b;
  link.bw_ab_bps = bw_ab_bps;
  link.bw_ba_bps = bw_ba_bps;
  link.latency_s = latency_s;
  link.label = label;
  // A hub port is physically part of the hub's collision domain.
  link.half_duplex =
      node(a).kind == NodeKind::hub || node(b).kind == NodeKind::hub;
  nodes_[a.index()].links.push_back(link.id);
  nodes_[b.index()].links.push_back(link.id);
  links_.push_back(link);
  return links_.back().id;
}

void Topology::set_zones(NodeId host, std::set<std::string> zones) {
  nodes_.at(host.index()).zones = std::move(zones);
}

void Topology::add_alias(NodeId host, HostAlias alias) {
  auto& node = nodes_.at(host.index());
  node.zones.insert(alias.zone);
  if (!alias.fqdn.empty()) host_by_fqdn_.emplace(alias.fqdn, host);
  node.aliases.push_back(std::move(alias));
}

void Topology::set_vlan(NodeId host, int vlan) { nodes_.at(host.index()).vlan = vlan; }

void Topology::set_property(NodeId host, const std::string& key, const std::string& value) {
  nodes_.at(host.index()).properties[key] = value;
}

void Topology::set_cpu_load(NodeId host, LoadModel model) {
  nodes_.at(host.index()).cpu_load = model;
}

void Topology::set_routing_weight(LinkId link, double weight_ab, double weight_ba) {
  links_.at(link.index()).weight_ab = weight_ab;
  links_.at(link.index()).weight_ba = weight_ba;
}

Result<NodeId> Topology::find_by_name(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return make_error(ErrorCode::not_found, "no node named '" + name + "'");
  }
  return it->second;
}

Result<NodeId> Topology::find_host_by_fqdn(const std::string& fqdn) const {
  const auto it = host_by_fqdn_.find(fqdn);
  if (it == host_by_fqdn_.end()) {
    return make_error(ErrorCode::not_found, "no host with fqdn '" + fqdn + "'");
  }
  return it->second;
}

Result<NodeId> Topology::find_by_name_or_fqdn(const std::string& name) const {
  if (const auto it = by_name_.find(name); it != by_name_.end()) return it->second;
  if (const auto it = host_by_fqdn_.find(name); it != host_by_fqdn_.end()) return it->second;
  return make_error(ErrorCode::not_found, "no host with fqdn '" + name + "'");
}

std::vector<NodeId> Topology::hosts() const {
  std::vector<NodeId> out;
  for (const auto& node : nodes_) {
    if (node.is_host()) out.push_back(node.id);
  }
  return out;
}

std::vector<NodeId> Topology::hosts_in_zone(const std::string& zone) const {
  std::vector<NodeId> out;
  for (const auto& node : nodes_) {
    if (node.is_host() && node.zones.count(zone) > 0) out.push_back(node.id);
  }
  return out;
}

std::vector<std::string> Topology::zones() const {
  std::set<std::string> unique;
  for (const auto& node : nodes_) {
    if (node.is_host()) unique.insert(node.zones.begin(), node.zones.end());
  }
  return {unique.begin(), unique.end()};
}

double Topology::capacity(LinkId id, NodeId from) const {
  const Link& l = link(id);
  return from == l.a ? l.bw_ab_bps : l.bw_ba_bps;
}

double Topology::routing_weight(LinkId id, NodeId from) const {
  const Link& l = link(id);
  return from == l.a ? l.weight_ab : l.weight_ba;
}

NodeId Topology::peer(LinkId id, NodeId from) const {
  const Link& l = link(id);
  return from == l.a ? l.b : l.a;
}

Status Topology::validate() const {
  if (by_name_.size() != nodes_.size()) {
    return make_error(ErrorCode::invalid_argument, "duplicate node names");
  }
  for (const auto& l : links_) {
    if (!usable_capacity(l.bw_ab_bps) || !usable_capacity(l.bw_ba_bps)) {
      return make_error(ErrorCode::invalid_argument,
                        "link " + std::to_string(l.id.value()) +
                            " has a non-positive or non-finite capacity");
    }
    if (!usable_weight(l.weight_ab) || !usable_weight(l.weight_ba)) {
      return make_error(ErrorCode::invalid_argument,
                        "link " + std::to_string(l.id.value()) +
                            " has a negative or non-finite routing weight");
    }
    if (l.latency_s < 0.0) {
      return make_error(ErrorCode::invalid_argument,
                        "link " + std::to_string(l.id.value()) + " has negative latency");
    }
    if (l.a == l.b) {
      return make_error(ErrorCode::invalid_argument,
                        "link " + std::to_string(l.id.value()) + " is a self-loop");
    }
  }
  for (const auto& n : nodes_) {
    if (n.kind == NodeKind::hub && !usable_capacity(n.hub_capacity_bps)) {
      return make_error(ErrorCode::invalid_argument,
                        "hub '" + n.name + "' has a non-positive or non-finite capacity");
    }
    if (n.is_host() && n.zones.empty()) {
      return make_error(ErrorCode::invalid_argument,
                        "host '" + n.name + "' belongs to no firewall zone");
    }
  }
  return {};
}

}  // namespace envnws::simnet

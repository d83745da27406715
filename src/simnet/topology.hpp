// Static description of the simulated platform: hosts, hubs, switches,
// routers, links, firewall zones and VLANs.
//
// The topology is *ground truth*: ENV and NWS never read it directly; they
// only observe it through probes. Tests and the deployment validator do
// read it, to check that what the tools inferred matches reality.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "simnet/address.hpp"
#include "simnet/link_model.hpp"
#include "simnet/types.hpp"

namespace envnws::simnet {

/// Deterministic synthetic load signal: base + diurnal-style sinusoid +
/// bucketed value-noise. Evaluating at the same instant always returns the
/// same value regardless of call order, which keeps sensors reproducible.
struct LoadModel {
  double base = 0.2;          ///< steady load (e.g. 0.2 runnable processes)
  double amplitude = 0.0;     ///< sinusoid amplitude
  double period_s = 3600.0;   ///< sinusoid period
  double phase = 0.0;         ///< sinusoid phase [radians]
  double noise_sigma = 0.0;   ///< stddev of additive bucketed noise
  double noise_bucket_s = 10.0;
  std::uint64_t seed = 1;

  /// Load value at simulated time `t` (clamped at 0).
  [[nodiscard]] double at(double t) const;
};

/// How a router behaves when a traceroute probe expires at it.
struct RouterPolicy {
  /// Paper §4.3 "Dropped traceroute": many routers never answer.
  bool responds_to_traceroute = true;
  /// Paper §3.2: routers "can return different addresses". When set, TTL
  /// replies carry this address instead of the router's primary one.
  std::optional<Ipv4> reported_address;
  /// Paper §4.3 "Machines without hostname": reverse DNS may fail.
  bool has_hostname = true;
};

/// A secondary identity of a multi-homed machine (e.g. a firewall gateway
/// that exists as popc.ens-lyon.fr on the public side and
/// popc0.popc.private on the private side).
struct HostAlias {
  std::string fqdn;
  Ipv4 ip;
  std::string zone;  ///< firewall zone this identity belongs to
};

struct Node {
  NodeId id;
  NodeKind kind = NodeKind::host;
  std::string name;  ///< short name ("canaria"); unique within the topology
  std::string fqdn;  ///< resolvable full name; empty => reverse DNS fails
  Ipv4 ip;           ///< primary address (zero for hubs/switches)
  RouterPolicy router;
  /// Hubs only: capacity of the shared medium (all ports contend for it).
  double hub_capacity_bps = 0.0;
  std::vector<LinkId> links;

  // --- host-only fields ---
  std::set<std::string> zones{"default"};  ///< firewall zones (hosts)
  std::vector<HostAlias> aliases;          ///< extra identities (gateways)
  int vlan = 0;
  std::map<std::string, std::string> properties;  ///< ENV "extra info" phase
  LoadModel cpu_load;
  double memory_total_mb = 1024.0;
  LoadModel memory_used_fraction{0.3, 0.0, 3600.0, 0.0, 0.0, 10.0, 2};
  double disk_total_mb = 20000.0;
  LoadModel disk_used_fraction{0.5, 0.0, 86400.0, 0.0, 0.0, 60.0, 3};
  bool up = true;  ///< failure-injection flag

  [[nodiscard]] bool is_host() const { return kind == NodeKind::host; }
  [[nodiscard]] bool ip_visible() const {
    return kind == NodeKind::router || (kind == NodeKind::host && !ip.is_zero());
  }
};

struct Link {
  LinkId id;
  NodeId a;
  NodeId b;
  /// Per-direction capacities; unequal values model asymmetric media.
  double bw_ab_bps = 0.0;
  double bw_ba_bps = 0.0;
  double latency_s = 0.0;  ///< one-way propagation latency
  /// Half-duplex media: both directions contend for ONE capacity
  /// (automatically true for any link with a hub endpoint).
  bool half_duplex = false;
  /// Per-direction routing weights; Dijkstra minimizes their sum. Unequal
  /// weights on parallel links produce asymmetric *routes* (paper §4.3).
  double weight_ab = 1.0;
  double weight_ba = 1.0;
  std::string label;
};

/// Builder + query interface. Construct with the add_*/connect calls, then
/// hand to `Network`, which freezes it.
class Topology {
 public:
  // --- construction ---
  NodeId add_host(const std::string& name, const std::string& fqdn, Ipv4 ip);
  NodeId add_hub(const std::string& name, double capacity_bps);
  NodeId add_switch(const std::string& name);
  NodeId add_router(const std::string& name, const std::string& fqdn, Ipv4 ip,
                    RouterPolicy policy = {});

  /// Symmetric full-duplex link.
  LinkId connect(NodeId a, NodeId b, double bw_bps, double latency_s,
                 const std::string& label = "");
  /// Fully general link.
  LinkId connect_directional(NodeId a, NodeId b, double bw_ab_bps, double bw_ba_bps,
                             double latency_s, const std::string& label = "");

  // --- host decoration ---
  void set_zones(NodeId host, std::set<std::string> zones);
  void add_alias(NodeId host, HostAlias alias);
  void set_vlan(NodeId host, int vlan);
  void set_property(NodeId host, const std::string& key, const std::string& value);
  void set_cpu_load(NodeId host, LoadModel model);
  void set_routing_weight(LinkId link, double weight_ab, double weight_ba);

  /// Mark the router every outbound path leaves through; traceroutes to
  /// "external" destinations stop there (it is the root of ENV's
  /// structural tree).
  void set_edge_router(NodeId router) { edge_router_ = router; }
  [[nodiscard]] NodeId edge_router() const { return edge_router_; }

  /// Link model applied by every Network built from this topology (the
  /// registry's `tcp-lv08:`/`lossy:`/`wifi:` decorators set it; the
  /// default is the bit-identical ideal model). Traveling with the
  /// topology means per-zone replica networks and the MapCache platform
  /// fingerprint inherit the model for free.
  void set_link_model(LinkModelSpec model) { link_model_ = model; }
  [[nodiscard]] const LinkModelSpec& link_model() const { return link_model_; }

  /// Deterministic background cross-traffic (the `bg:<flows>`
  /// decorator); every Network built from this topology attaches the
  /// same seeded generator set.
  void set_background(BackgroundSpec background) { background_ = background; }
  [[nodiscard]] const BackgroundSpec& background() const { return background_; }

  // --- queries ---
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const Node& node(NodeId id) const { return nodes_.at(id.index()); }
  [[nodiscard]] Node& node_mut(NodeId id) { return nodes_.at(id.index()); }
  [[nodiscard]] const Link& link(LinkId id) const { return links_.at(id.index()); }
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<Link>& links() const { return links_; }

  [[nodiscard]] Result<NodeId> find_by_name(const std::string& name) const;
  /// Looks up hosts by primary fqdn or any alias fqdn.
  [[nodiscard]] Result<NodeId> find_host_by_fqdn(const std::string& fqdn) const;
  /// The node named `name`, else the host whose fqdn (primary or alias)
  /// it is; find_host_by_fqdn's not_found error when neither. Builds the
  /// error only on a miss.
  [[nodiscard]] Result<NodeId> find_by_name_or_fqdn(const std::string& name) const;
  [[nodiscard]] std::vector<NodeId> hosts() const;
  [[nodiscard]] std::vector<NodeId> hosts_in_zone(const std::string& zone) const;
  /// All firewall zones mentioned by any host.
  [[nodiscard]] std::vector<std::string> zones() const;
  /// The capacity of the given link in the `from` -> `to` direction.
  [[nodiscard]] double capacity(LinkId id, NodeId from) const;
  [[nodiscard]] double routing_weight(LinkId id, NodeId from) const;
  /// Other endpoint of `id` relative to `from`.
  [[nodiscard]] NodeId peer(LinkId id, NodeId from) const;

  /// Sanity checks (positive capacities, names unique, ...). Call before
  /// simulation; returns the first problem found.
  [[nodiscard]] Status validate() const;

 private:
  NodeId add_node(NodeKind kind, const std::string& name, const std::string& fqdn, Ipv4 ip);

  std::vector<Node> nodes_;
  std::vector<Link> links_;
  /// Node lookup by name; first registration wins (emplace). Hashed:
  /// nothing iterates it, and every probe of a mapping pass resolves its
  /// hosts through it.
  std::unordered_map<std::string, NodeId> by_name_;
  /// Host lookup by primary or alias fqdn. Maintained by add_host /
  /// add_alias; first registration wins, matching the old linear scan's
  /// node-order tie-break. Without it every zone-local name resolution
  /// (the names ARE fqdns) walked all nodes — O(n²) string compares for
  /// one 10k-host mapping pass.
  std::unordered_map<std::string, NodeId> host_by_fqdn_;
  NodeId edge_router_ = NodeId::invalid();
  LinkModelSpec link_model_;
  BackgroundSpec background_;
};

}  // namespace envnws::simnet

// The Effective Network View tree.
//
// The result of an ENV run is a tree of "ENV networks": LAN segments
// classified as shared (hub-like) or switched, annotated with the
// bandwidth observed from the master (ENV_base_BW) and between members
// (ENV_base_local_BW), nested under the structural nodes that remain
// relevant. This is the data the NWS deployment planner consumes.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "gridml/model.hpp"

namespace envnws::env {

enum class NetKind {
  structural,    ///< routing skeleton node (or a lone machine: no LAN inferred)
  shared,        ///< hub / bus: one collision domain (paper: ENV_Shared)
  switched,      ///< per-port independence (paper: ENV_Switched)
  inconclusive,  ///< jam ratio between the two thresholds: ENV gives up
};

[[nodiscard]] const char* to_string(NetKind kind);

struct EnvNetwork {
  NetKind kind = NetKind::structural;
  std::string label;     ///< hop name, cluster tag, ...
  std::string label_ip;  ///< hop address when known
  double base_bw_bps = 0.0;        ///< master -> members (median)
  double base_local_bw_bps = 0.0;  ///< member <-> member (median)
  /// members -> master (median); 0 unless bidirectional probing was on
  /// (the asymmetric-routes extension, see MapperOptions).
  double base_reverse_bw_bps = 0.0;
  /// Forward/reverse disagreement beyond the configured ratio.
  bool route_asymmetric = false;
  /// Member machines (canonical fqdn); includes the master when it sits
  /// on this segment.
  std::vector<std::string> machines;
  /// Machine through which this network hangs off its parent ("" if the
  /// attachment point is a pure router).
  std::string gateway;
  std::vector<EnvNetwork> children;

  [[nodiscard]] std::vector<std::string> all_machines() const;
  /// Deepest network whose direct member list contains `machine`.
  [[nodiscard]] const EnvNetwork* find_containing(const std::string& machine) const;
  [[nodiscard]] EnvNetwork* find_containing(const std::string& machine);
  /// All networks (this + descendants) that are LAN segments
  /// (kind is shared / switched / inconclusive).
  [[nodiscard]] std::vector<const EnvNetwork*> lan_segments() const;
  /// Every distinct gateway machine named anywhere in the tree (the
  /// dual-homed hosts stitching levels/zones together).
  [[nodiscard]] std::vector<std::string> gateways() const;

  [[nodiscard]] gridml::NetworkNode to_gridml() const;
  /// Rebuild a view from published GridML. Fails with `protocol` when a
  /// bandwidth property (ENV_base_BW & friends) is not a number — a
  /// malformed published document must surface as a Result error, never
  /// as an exception out of the public API.
  static Result<EnvNetwork> from_gridml(const gridml::NetworkNode& node);
};

/// The effective view a published GridML document carries: its last
/// NETWORK element, where Mapper::map appends the merged view after the
/// per-zone site data. Fails with `invalid_argument` when the document
/// has no NETWORK element, and as from_gridml() does on a bad property.
[[nodiscard]] Result<EnvNetwork> published_view(const gridml::GridDoc& doc);

/// Rewrite every machine / gateway name through `canon` (used after a
/// firewall merge so both zones speak about the same canonical machines).
void canonicalize(EnvNetwork& network,
                  const std::function<std::string(const std::string&)>& canon);

/// ASCII rendering in the style of paper Fig. 1(b).
[[nodiscard]] std::string render_effective(const EnvNetwork& root);

}  // namespace envnws::env

// The Effective Network View tree.
//
// The result of an ENV run is a tree of "ENV networks": LAN segments
// classified as shared (hub-like) or switched, annotated with the
// bandwidth observed from the master and between members, nested under
// the structural nodes that remain relevant. This is the data the NWS
// deployment planner consumes. It is published as a GridML NETWORK
// element, whose vocabulary env_tree.cpp alone knows.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "gridml/model.hpp"

namespace envnws::env {

enum class NetKind {
  structural,    ///< routing skeleton node (or a lone machine: no LAN inferred)
  shared,        ///< hub / bus: one collision domain
  switched,      ///< per-port independence
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
  /// Every distinct gateway machine named anywhere in the tree (the
  /// dual-homed hosts stitching levels/zones together).
  [[nodiscard]] std::vector<std::string> gateways() const;

  /// The GridML `NETWORK` element publishing this view (paper §4): its
  /// type, an optional LABEL, the ENV_* PROPERTYs (bandwidths in Mbit/s
  /// with two decimals), the member MACHINE references, then nested
  /// NETWORKs.
  [[nodiscard]] gridml::XmlElement to_xml() const;
  /// Rebuild a view from a published `NETWORK` element. An empty type is
  /// structural and the first PROPERTY of a name wins. Fails with
  /// `protocol` on an unknown type, a bandwidth that is not a number or
  /// an ENV_route_asymmetric other than `true` / `false`: a malformed
  /// published document must surface as a Result error, never as an
  /// exception out of the public API.
  static Result<EnvNetwork> from_xml(const gridml::XmlElement& element);
};

/// The effective view a published GridML document carries: its last
/// NETWORK element, where Mapper::map appends the merged view after the
/// per-zone site data. Every NETWORK element of the document is parsed,
/// so a malformed one anywhere fails as from_xml() does. Fails with
/// `invalid_argument` when the document has no NETWORK element.
[[nodiscard]] Result<EnvNetwork> published_view(const gridml::GridDoc& doc);

/// Rewrite every machine / gateway name through `canon` (used after a
/// firewall merge so both zones speak about the same canonical machines).
void canonicalize(EnvNetwork& network,
                  const std::function<std::string(const std::string&)>& canon);

/// ASCII rendering in the style of paper Fig. 1(b).
[[nodiscard]] std::string render_effective(const EnvNetwork& root);

}  // namespace envnws::env

// NWS deployment plans (paper §5.1).
//
// A plan answers "which NWS processes run where, and which measurement
// cliques exist": one clique per ENV network — a representative pair for
// shared segments (one couple's connectivity is representative of every
// couple's), the full member set for switched segments (pairs are
// independent but each host may join at most one experiment at a time) —
// plus inter-network cliques linking one representative per sibling, and
// a substitution table recording which unmeasured pairs a representative
// pair stands for.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace envnws::deploy {

enum class CliqueRole {
  shared_pair,   ///< two representatives of a shared (hub) segment
  switched_all,  ///< every member of a switched segment
  inter,         ///< one representative per sibling network
};

[[nodiscard]] const char* to_string(CliqueRole role);

/// Bandwidth-experiment payload of LAN cliques: the NWS default.
inline constexpr std::int64_t kLanProbeBytes = 64 * 1024;
/// Payload of inter-network cliques: larger, or the transfer time drowns
/// in WAN round-trip latency and bandwidth is underestimated by ~2x.
inline constexpr std::int64_t kWanProbeBytes = 1024 * 1024;

struct PlannedClique {
  std::string name;
  CliqueRole role = CliqueRole::inter;
  std::vector<std::string> members;  ///< canonical machine names
  /// The ENV network this clique monitors (label, for reports).
  std::string network_label;
  double period_s = 10.0;
  /// Bandwidth-experiment payload (kLanProbeBytes or kWanProbeBytes; a
  /// hand-built plan's non-positive value falls back to kLanProbeBytes).
  std::int64_t probe_bytes = kLanProbeBytes;
  /// Extension: tokens circulating concurrently (switched segments with
  /// host locking only; >1 multiplies the refresh rate).
  std::size_t parallel_tokens = 1;

  /// The monitor's drift/re-map unit: the network label, or the clique
  /// name for a clique without one (inter-network cliques, unlabeled
  /// segments).
  [[nodiscard]] const std::string& segment() const {
    return network_label.empty() ? name : network_label;
  }
};

/// "The connexion (AB) is representative of the connexion (CD)": every
/// pair within `covered` may be answered with the (rep_a, rep_b) series.
struct Substitution {
  std::string network_label;
  std::vector<std::string> covered;
  std::string rep_a;
  std::string rep_b;
};

struct DeploymentPlan {
  std::string master;  ///< deployment viewpoint (runs NS + forecaster)
  std::string nameserver_host;
  std::string forecaster_host;
  std::vector<std::string> memory_hosts;
  std::vector<std::string> hosts;  ///< every machine receiving a sensor
  std::vector<PlannedClique> cliques;
  std::vector<Substitution> substitutions;
  /// Extension (paper conclusion): deploy with host-level measurement
  /// locks; experiments sharing an endpoint serialize across cliques,
  /// and switched cliques may run disjoint-host experiments in parallel.
  bool use_host_locks = false;

  /// Total experiments in one full measurement cycle (every clique
  /// visiting each of its ordered pairs once) — the intrusiveness proxy.
  [[nodiscard]] std::uint64_t experiments_per_cycle() const;
  [[nodiscard]] std::string render() const;
};

}  // namespace envnws::deploy

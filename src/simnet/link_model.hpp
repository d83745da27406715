// Pluggable link model: protocol corrections applied on top of the
// nominal topology capacities.
//
// The default ("ideal") model is bit-identical to the historical
// behavior: flows share nominal link capacities max-min fairly and
// latency is pure propagation. Three corrections can be layered on top,
// in any combination:
//
//   tcp-lv08  SimGrid's empirically-validated TCP model: only ~97% of
//             nominal bandwidth is usable by a TCP payload, first-byte
//             latency is multiplied by 13.01 (slow start), and every
//             flow injects a 0.05-weight cross-traffic stream on its
//             reverse path (ack contention), which turns the fair-share
//             problem into a weighted one.
//   lossy     Per-link loss/corruption percentages (the cn3-simulator's
//             pct_loss / pct_cksum knobs). A lost or corrupted segment
//             is retransmitted, so the goodput of a link is its capacity
//             divided by the expected number of (re)transmissions:
//             effective = nominal * (1 - loss) * (1 - cksum).
//   wifi      Shared-medium zones: every switch becomes a wireless
//             access point whose attached stations all contend for ONE
//             medium (capacity = fastest attached link), like a hub but
//             keeping full-duplex point-to-point links elsewhere.
//
// The spec travels inside `Topology`, so every Network built from a
// scenario — including the per-zone replicas api::Session clones for
// concurrent mapping — inherits the same model, and the MapCache
// platform fingerprint naturally covers it.
#pragma once

#include <cstdint>
#include <string>

namespace envnws::simnet {

struct LinkModelSpec {
  // --- tcp-lv08 ---
  bool tcp = false;
  /// Fraction of nominal bandwidth a TCP payload can use (lv08: 0.97).
  double usable_fraction = 0.97;
  /// Slow-start first-byte latency multiplier (lv08: 13.01).
  double latency_factor = 13.01;
  /// Weight of the reverse-path cross-traffic stream each flow injects
  /// into the fair-share problem (lv08: 0.05).
  double cross_traffic_share = 0.05;

  // --- lossy ---
  double loss_pct = 0.0;   ///< segment loss percentage in [0, 100)
  double cksum_pct = 0.0;  ///< checksum-corruption percentage in [0, 100)

  // --- wifi ---
  bool wifi = false;

  [[nodiscard]] static LinkModelSpec ideal() { return {}; }
  [[nodiscard]] bool is_ideal() const {
    return !tcp && !wifi && loss_pct == 0.0 && cksum_pct == 0.0;
  }
  [[nodiscard]] bool lossy() const { return loss_pct > 0.0 || cksum_pct > 0.0; }
  /// Cross-traffic back-flows active (turns rate computation weighted).
  [[nodiscard]] bool weighted() const { return tcp && cross_traffic_share > 0.0; }

  /// Bandwidth a payload can extract from a `nominal_bps` medium under
  /// this model. Identity (same bits) for the ideal model.
  [[nodiscard]] double effective_capacity(double nominal_bps) const;
  /// First-byte latency for a bulk transfer over a `nominal_s` path.
  /// Identity for the ideal model.
  [[nodiscard]] double effective_latency(double nominal_s) const;

  /// Canonical spec-decorator prefix ("" for ideal), e.g.
  /// "tcp-lv08:lossy:p=2%:wifi:". Prepending it to a base scenario spec
  /// reproduces this model through `ScenarioSpec::parse`.
  [[nodiscard]] std::string decorator_prefix() const;
  /// Stable identity string for cache keys ("ideal" when no correction
  /// is active).
  [[nodiscard]] std::string fingerprint() const;
};

/// Deterministic background cross-traffic attached to a topology (the
/// `bg:<flows>` decorator). Generators are created by every Network
/// built from the topology, so replicas replay identical load.
struct BackgroundSpec {
  int flows = 0;          ///< number of on/off generators (0 = none)
  double intensity = 0.3; ///< approximate duty cycle per generator
  std::uint64_t seed = 1; ///< generator placement + burst timing seed

  [[nodiscard]] bool active() const { return flows > 0; }
  [[nodiscard]] std::string decorator_prefix() const;
};

}  // namespace envnws::simnet

#include "simnet/link_model.hpp"

#include <sstream>

namespace envnws::simnet {

double LinkModelSpec::effective_capacity(double nominal_bps) const {
  // The ideal fast path returns the input untouched so capacities stay
  // bit-identical to the historical pipeline (not merely numerically
  // equal after a *1.0 round trip).
  double bps = nominal_bps;
  if (tcp) bps *= usable_fraction;
  if (lossy()) bps *= (1.0 - loss_pct / 100.0) * (1.0 - cksum_pct / 100.0);
  return bps;
}

double LinkModelSpec::effective_latency(double nominal_s) const {
  return tcp ? nominal_s * latency_factor : nominal_s;
}

std::string LinkModelSpec::decorator_prefix() const {
  // Canonical order: tcp-lv08, lossy, wifi. Decorators commute, so any
  // parse order renders the same prefix and `parse(to_string())`
  // round-trips.
  std::ostringstream out;
  if (tcp) out << "tcp-lv08:";
  if (lossy()) {
    out << "lossy:p=" << loss_pct << "%:";
    if (cksum_pct > 0.0) out << "c=" << cksum_pct << "%:";
  }
  if (wifi) out << "wifi:";
  return out.str();
}

std::string LinkModelSpec::fingerprint() const {
  if (is_ideal()) return "ideal";
  return decorator_prefix();
}

std::string BackgroundSpec::decorator_prefix() const {
  if (!active()) return "";
  std::ostringstream out;
  out << "bg:" << flows << ":";
  return out.str();
}

}  // namespace envnws::simnet

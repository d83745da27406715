#include "api/scenario_registry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

#include "api/gridml_scenario.hpp"
#include "common/parse.hpp"
#include "common/strings.hpp"
#include "common/units.hpp"

namespace envnws::api {

namespace {

Result<int> parse_int(const std::string& piece, const std::string& what) {
  const auto value = parse::to_i64(strings::trim(piece));
  if (!value.has_value() || *value < std::numeric_limits<int>::min() ||
      *value > std::numeric_limits<int>::max()) {
    return make_error(ErrorCode::invalid_argument,
                      "bad " + what + " '" + piece + "' (expected an integer)");
  }
  return static_cast<int>(*value);
}

Result<double> parse_rate(const std::string& piece) {
  const auto value = parse::to_double(strings::trim(piece));
  if (!value.has_value() || !(*value > 0.0) || !std::isfinite(*value)) {
    return make_error(ErrorCode::invalid_argument,
                      "bad rate '" + piece + "' (expected a finite Mbps > 0)");
  }
  return *value;
}

/// Reject specs carrying more parameters than the builder understands —
/// a typoed spec should fail loudly, not half-apply.
Status check_arity(const ScenarioSpec& spec, std::size_t max_dims, std::size_t max_rates) {
  if (spec.dims.size() > max_dims) {
    return make_error(ErrorCode::invalid_argument,
                      "scenario '" + spec.name + "' takes at most " +
                          std::to_string(max_dims) + " dimension(s), got " +
                          std::to_string(spec.dims.size()));
  }
  if (spec.rates_mbps.size() > max_rates) {
    return make_error(ErrorCode::invalid_argument,
                      "scenario '" + spec.name + "' takes at most " +
                          std::to_string(max_rates) + " rate(s), got " +
                          std::to_string(spec.rates_mbps.size()));
  }
  return {};
}

Result<int> positive_dim(const ScenarioSpec& spec, std::size_t i, int fallback) {
  if (i >= spec.dims.size()) return fallback;
  if (spec.dims[i] <= 0) {
    return make_error(ErrorCode::invalid_argument,
                      "scenario '" + spec.name + "': dimension " + std::to_string(i + 1) +
                          " must be positive");
  }
  return spec.dims[i];
}

double rate_bps_or(const ScenarioSpec& spec, std::size_t i, double fallback_mbps) {
  return units::mbps(i < spec.rates_mbps.size() ? spec.rates_mbps[i] : fallback_mbps);
}

/// `"2%"` / `"0.5%"` -> 2.0 / 0.5; anything else (missing '%', trailing
/// junk, negative, NaN, infinite) is an invalid_argument error.
Result<double> parse_percent(const std::string& piece, const std::string& what) {
  std::optional<double> value;
  if (!piece.empty() && piece.back() == '%') {
    value = parse::to_double(strings::trim(std::string_view(piece).substr(0, piece.size() - 1)));
  }
  if (!value.has_value() || !(*value >= 0.0) || !std::isfinite(*value)) {
    return make_error(ErrorCode::invalid_argument,
                      "bad " + what + " '" + piece + "' (expected '<value>%')");
  }
  return *value;
}

/// Peels `tcp-lv08:` / `lossy:...` / `wifi:` / `bg:<flows>:` prefixes off
/// `head`, accumulating into `spec`. Decorators commute but may appear
/// at most once each.
Status peel_decorators(ScenarioSpec& spec, std::string& head) {
  bool saw_lossy = false;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    const auto colon = head.find(':');
    if (colon == std::string::npos) break;
    const std::string token = strings::to_lower(strings::trim(head.substr(0, colon)));
    const auto duplicate = [&](const char* name) {
      return make_error(ErrorCode::invalid_argument,
                        std::string("decorator '") + name + "' given more than once");
    };
    if (token == "tcp-lv08") {
      if (spec.link_model.tcp) return duplicate("tcp-lv08");
      spec.link_model.tcp = true;
    } else if (token == "wifi") {
      if (spec.link_model.wifi) return duplicate("wifi");
      spec.link_model.wifi = true;
    } else if (token == "lossy") {
      if (saw_lossy) return duplicate("lossy");
      saw_lossy = true;
      head = head.substr(colon + 1);
      // Optional colon-terminated `p=P%` / `c=C%` argument tokens.
      double loss = -1.0;
      double cksum = -1.0;
      while (true) {
        const auto next = head.find(':');
        if (next == std::string::npos) break;
        const std::string arg = strings::to_lower(strings::trim(head.substr(0, next)));
        double* slot = nullptr;
        const char* what = nullptr;
        if (arg.rfind("p=", 0) == 0) {
          slot = &loss;
          what = "loss percentage";
        } else if (arg.rfind("c=", 0) == 0) {
          slot = &cksum;
          what = "corruption percentage";
        } else {
          break;
        }
        if (*slot >= 0.0) return duplicate(what);
        auto value = parse_percent(arg.substr(2), what);
        if (!value.ok()) return value.error();
        if (value.value() >= 100.0) {
          return make_error(ErrorCode::invalid_argument,
                            std::string("decorator 'lossy': ") + what + " must be below 100%");
        }
        *slot = value.value();
        head = head.substr(next + 1);
      }
      spec.link_model.loss_pct = loss >= 0.0 ? loss : 2.0;
      spec.link_model.cksum_pct = cksum >= 0.0 ? cksum : 0.0;
      progressed = true;
      continue;
    } else if (token == "bg") {
      if (spec.background.active()) return duplicate("bg");
      const std::string rest = head.substr(colon + 1);
      const auto next = rest.find(':');
      if (next == std::string::npos) {
        return make_error(ErrorCode::invalid_argument,
                          "decorator 'bg' needs a flow count ('bg:<flows>:')");
      }
      auto flows = parse_int(strings::trim(rest.substr(0, next)), "background flow count");
      if (!flows.ok()) return flows.error();
      if (flows.value() <= 0 || flows.value() > 4096) {
        return make_error(ErrorCode::invalid_argument,
                          "decorator 'bg': flow count must be in [1, 4096]");
      }
      spec.background.flows = flows.value();
      head = rest.substr(next + 1);
      progressed = true;
      continue;
    } else {
      break;
    }
    head = head.substr(colon + 1);
    progressed = true;
  }
  return {};
}

}  // namespace

Result<ScenarioSpec> ScenarioSpec::parse(const std::string& text) {
  ScenarioSpec spec;
  std::string head = strings::trim(text);
  // Decorator prefixes come first, before the '@' split: their arguments
  // never contain '@', and peeling first keeps "file:" payloads (which
  // may contain anything) verbatim.
  if (auto status = peel_decorators(spec, head); !status.ok()) return status.error();
  // Path-like specs: everything after "file:" is the payload, verbatim.
  constexpr const char* kFilePrefix = "file:";
  if (strings::to_lower(head).rfind(kFilePrefix, 0) == 0) {
    spec.name = "file";
    spec.payload = strings::trim(head.substr(std::string(kFilePrefix).size()));
    if (spec.payload.empty()) {
      return make_error(ErrorCode::invalid_argument,
                        "scenario spec 'file:' names no GridML file");
    }
    return spec;
  }
  if (const auto at = head.find('@'); at != std::string::npos) {
    for (const auto& piece : strings::split(head.substr(at + 1), '/')) {
      auto rate = parse_rate(piece);
      if (!rate.ok()) return rate.error();
      spec.rates_mbps.push_back(rate.value());
    }
    if (spec.rates_mbps.empty()) {
      return make_error(ErrorCode::invalid_argument, "empty rate list after '@' in '" + text + "'");
    }
    head = head.substr(0, at);
  }
  if (const auto colon = head.find(':'); colon != std::string::npos) {
    for (const auto& piece : strings::split(head.substr(colon + 1), 'x')) {
      auto dim = parse_int(piece, "dimension");
      if (!dim.ok()) return dim.error();
      spec.dims.push_back(dim.value());
    }
    if (spec.dims.empty()) {
      return make_error(ErrorCode::invalid_argument,
                        "empty dimension list after ':' in '" + text + "'");
    }
    head = head.substr(0, colon);
  }
  spec.name = strings::to_lower(strings::trim(head));
  if (spec.name.empty()) {
    return make_error(ErrorCode::invalid_argument, "scenario spec '" + text + "' has no name");
  }
  return spec;
}

std::string ScenarioSpec::to_string() const {
  const std::string prefix = link_model.decorator_prefix() + background.decorator_prefix();
  if (!payload.empty()) return prefix + name + ":" + payload;
  std::ostringstream out;
  out << prefix << name;
  for (std::size_t i = 0; i < dims.size(); ++i) out << (i == 0 ? ':' : 'x') << dims[i];
  for (std::size_t i = 0; i < rates_mbps.size(); ++i) {
    out << (i == 0 ? '@' : '/') << rates_mbps[i];
  }
  return out.str();
}

void ScenarioRegistry::add(Entry entry) {
  const std::string key = entry.name;
  entries_[key] = std::move(entry);
}

Result<simnet::Scenario> ScenarioRegistry::make(const std::string& spec_text) const {
  auto spec = ScenarioSpec::parse(spec_text);
  if (!spec.ok()) return spec.error();
  return make(spec.value());
}

Result<simnet::Scenario> ScenarioRegistry::make(const ScenarioSpec& spec) const {
  const auto it = entries_.find(spec.name);
  if (it == entries_.end()) {
    std::vector<std::string> known;
    known.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) known.push_back(name);
    return make_error(ErrorCode::not_found,
                      "unknown scenario '" + spec.name + "' (known: " +
                          strings::join(known, ", ") + ")");
  }
  auto made = it->second.factory(spec);
  if (!made.ok()) return made;
  // Decorators travel with the topology, so every Network built from
  // this scenario — including per-zone replicas — applies the same
  // model and background load.
  made.value().topology.set_link_model(spec.link_model);
  made.value().topology.set_background(spec.background);
  // Registry-built scenarios are self-describing: the name IS the
  // canonical spec, which keeps e.g. "dumbbell:4x4" and "dumbbell:3x3"
  // apart when the name becomes a map-cache key.
  made.value().name = spec.to_string();
  return made;
}

std::vector<const ScenarioRegistry::Entry*> ScenarioRegistry::entries() const {
  std::vector<const Entry*> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(&entry);
  return out;  // std::map iteration is already name-sorted
}

std::string ScenarioRegistry::render_catalog() const {
  std::ostringstream out;
  for (const Entry* entry : entries()) {
    out << "  " << strings::pad_right(entry->synopsis, 40) << entry->description << "\n";
  }
  return out.str();
}

const ScenarioRegistry& ScenarioRegistry::builtin() {
  static const ScenarioRegistry registry = [] {
    ScenarioRegistry r;
    r.add({"ens-lyon", "ens-lyon",
           "the paper's ENS-Lyon evaluation network (Fig. 1a)",
           [](const ScenarioSpec& spec) -> Result<simnet::Scenario> {
             if (auto st = check_arity(spec, 0, 0); !st.ok()) return st.error();
             return simnet::ens_lyon();
           }});
    const auto star_factory = [](bool hub) {
      return [hub](const ScenarioSpec& spec) -> Result<simnet::Scenario> {
        if (auto st = check_arity(spec, 1, 1); !st.ok()) return st.error();
        auto n = positive_dim(spec, 0, 8);
        if (!n.ok()) return n.error();
        // The host addressing plan packs 254 hosts per /24 inside 10/8;
        // 65534 keeps every generated address unique with room to spare
        // and bounds a typoed spec before it tries to allocate the moon.
        if (n.value() > 65534) {
          return make_error(ErrorCode::invalid_argument,
                            "scenario '" + spec.name + "': at most 65534 hosts");
        }
        const double bw = rate_bps_or(spec, 0, 100.0);
        return hub ? simnet::star_hub(n.value(), bw) : simnet::star_switch(n.value(), bw);
      };
    };
    r.add({"star", "star[:N][@bw]",
           "N hosts on one shared hub (alias of star-hub)", star_factory(true)});
    r.add({"star-hub", "star-hub[:N][@bw]",
           "N hosts on one shared half-duplex hub", star_factory(true)});
    r.add({"star-switch", "star-switch[:N][@bw]",
           "N hosts on one full-duplex switch", star_factory(false)});
    r.add({"dumbbell", "dumbbell[:LxR][@port/bottleneck]",
           "two switched clusters joined by a bottleneck link",
           [](const ScenarioSpec& spec) -> Result<simnet::Scenario> {
             if (auto st = check_arity(spec, 2, 2); !st.ok()) return st.error();
             auto left = positive_dim(spec, 0, 3);
             auto right = positive_dim(spec, 1, 3);
             if (!left.ok()) return left.error();
             if (!right.ok()) return right.error();
             return simnet::dumbbell(left.value(), right.value(), rate_bps_or(spec, 0, 100.0),
                                     rate_bps_or(spec, 1, 10.0));
           }});
    r.add({"two-cluster", "two-cluster[:N][@port/transversal]",
           "master + two N-host clusters with a transversal link",
           [](const ScenarioSpec& spec) -> Result<simnet::Scenario> {
             if (auto st = check_arity(spec, 1, 2); !st.ok()) return st.error();
             auto per = positive_dim(spec, 0, 4);
             if (!per.ok()) return per.error();
             return simnet::two_cluster_transversal(per.value(), rate_bps_or(spec, 0, 100.0),
                                                    rate_bps_or(spec, 1, 50.0));
           }});
    r.add({"vlan", "vlan[:HxV][@port]",
           "one switch carved into V VLANs of H hosts joined by a router",
           [](const ScenarioSpec& spec) -> Result<simnet::Scenario> {
             if (auto st = check_arity(spec, 2, 1); !st.ok()) return st.error();
             auto hosts = positive_dim(spec, 0, 4);
             auto vlans = positive_dim(spec, 1, 2);
             if (!hosts.ok()) return hosts.error();
             if (!vlans.ok()) return vlans.error();
             return simnet::vlan_lab(hosts.value(), vlans.value(), rate_bps_or(spec, 0, 100.0));
           }});
    r.add({"constellation", "constellation[:SxH][@lan/wan]",
           "WAN constellation of S LAN sites with H hosts each",
           [](const ScenarioSpec& spec) -> Result<simnet::Scenario> {
             if (auto st = check_arity(spec, 2, 2); !st.ok()) return st.error();
             auto sites = positive_dim(spec, 0, 4);
             auto hosts = positive_dim(spec, 1, 5);
             if (!sites.ok()) return sites.error();
             if (!hosts.ok()) return hosts.error();
             return simnet::wan_constellation(sites.value(), hosts.value(),
                                              rate_bps_or(spec, 0, 100.0),
                                              rate_bps_or(spec, 1, 10.0));
           }});
    r.add({"random-lan", "random-lan[:SEED][@bw1/bw2...]",
           "randomized multi-segment LAN with recorded ground truth; the"
           " rates replace the candidate segment speeds",
           [](const ScenarioSpec& spec) -> Result<simnet::Scenario> {
             if (auto st = check_arity(spec, 1, 8); !st.ok()) return st.error();
             const int seed = spec.dims.empty() ? 1 : spec.dims[0];
             if (seed < 0) {
               return make_error(ErrorCode::invalid_argument,
                                 "scenario 'random-lan': seed must be >= 0");
             }
             simnet::RandomLanParams params;
             if (!spec.rates_mbps.empty()) {
               params.segment_bw_bps.clear();
               for (const double rate : spec.rates_mbps) {
                 params.segment_bw_bps.push_back(units::mbps(rate));
               }
             }
             return simnet::random_lan(static_cast<std::uint64_t>(seed), params);
           }});
    r.add({"multi-firewall", "multi-firewall[:ZxH][@lan/public]",
           "Z firewalled private domains of H hosts behind dual-homed"
           " gateways (Z+1 independent mapping zones)",
           [](const ScenarioSpec& spec) -> Result<simnet::Scenario> {
             if (auto st = check_arity(spec, 2, 2); !st.ok()) return st.error();
             auto zones = positive_dim(spec, 0, 2);
             auto hosts = positive_dim(spec, 1, 3);
             if (!zones.ok()) return zones.error();
             if (!hosts.ok()) return hosts.error();
             if (zones.value() > 64 || hosts.value() > 200) {
               return make_error(ErrorCode::invalid_argument,
                                 "scenario 'multi-firewall': at most 64 zones of 200 hosts");
             }
             return simnet::multi_firewall(zones.value(), hosts.value(),
                                           rate_bps_or(spec, 0, 100.0),
                                           rate_bps_or(spec, 1, 100.0));
           }});
    r.add({"fat-tree", "fat-tree[:K][@bw]",
           "K-ary fat-tree (K even) of K^3/4 hosts behind routed"
           " aggregation and core tiers",
           [](const ScenarioSpec& spec) -> Result<simnet::Scenario> {
             if (auto st = check_arity(spec, 1, 1); !st.ok()) return st.error();
             auto k = positive_dim(spec, 0, 4);
             if (!k.ok()) return k.error();
             if (k.value() % 2 != 0 || k.value() > 10) {
               return make_error(ErrorCode::invalid_argument,
                                 "scenario 'fat-tree': K must be even and <= 10");
             }
             return simnet::fat_tree(k.value(), rate_bps_or(spec, 0, 100.0));
           }});
    r.add({"torus", "torus[:XxYxZ][@bw]",
           "3-D torus of routers with one host each (unset trailing"
           " dimensions default to 1; bare 'torus' is 2x2x2)",
           [](const ScenarioSpec& spec) -> Result<simnet::Scenario> {
             if (auto st = check_arity(spec, 3, 1); !st.ok()) return st.error();
             const bool bare = spec.dims.empty();
             auto x = positive_dim(spec, 0, 2);
             auto y = positive_dim(spec, 1, bare ? 2 : 1);
             auto z = positive_dim(spec, 2, bare ? 2 : 1);
             if (!x.ok()) return x.error();
             if (!y.ok()) return y.error();
             if (!z.ok()) return z.error();
             if (x.value() > 16 || y.value() > 16 || z.value() > 16 ||
                 x.value() * y.value() * z.value() > 64) {
               return make_error(ErrorCode::invalid_argument,
                                 "scenario 'torus': each dimension <= 16 and at most 64"
                                 " nodes in total");
             }
             return simnet::torus3d(x.value(), y.value(), z.value(),
                                    rate_bps_or(spec, 0, 100.0));
           }});
    r.add({"file", "file:<path.gridml>",
           "platform synthesized from a published GridML effective view",
           [](const ScenarioSpec& spec) -> Result<simnet::Scenario> {
             if (auto st = check_arity(spec, 0, 0); !st.ok()) return st.error();
             if (spec.payload.empty()) {
               return make_error(ErrorCode::invalid_argument,
                                 "scenario 'file': needs a path (file:<path.gridml>)");
             }
             return scenario_from_gridml_file(spec.payload);
           }});
    return r;
  }();
  return registry;
}

}  // namespace envnws::api

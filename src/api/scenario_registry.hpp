// String-keyed scenario construction: `"dumbbell:3x3@100/10"` -> Scenario.
//
// Every platform builder in simnet/scenario.hpp is registered under a
// stable name, so examples, benches and tests can select workloads at run
// time instead of recompiling. A spec string is
//
//     [decorator:...]name[:D1xD2...][@R1/R2...]
//
// where the D's are integer dimensions (host counts, site counts, seeds)
// and the R's are link rates in Mbps. Each entry documents its own
// parameter meaning; omitted parameters fall back to the entry's
// defaults, so `"dumbbell"` alone is a runnable platform.
//
// Decorators degrade the platform's link model and compose with every
// family (see docs/SCENARIOS.md):
//
//     tcp-lv08:          SimGrid lv08 TCP corrections
//     lossy:[p=P%:][c=C%:]  P% segment loss, C% checksum corruption
//     wifi:              switches become shared-medium access points
//     bg:<flows>:        seeded background cross-traffic generators
//
// They commute; `to_string()` renders the canonical order
// tcp-lv08/lossy/wifi/bg, and `parse(to_string())` round-trips.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "simnet/scenario.hpp"

namespace envnws::api {

/// Parsed form of a scenario spec string.
struct ScenarioSpec {
  std::string name;
  std::vector<int> dims;          ///< ":3x3" -> {3, 3}
  std::vector<double> rates_mbps; ///< "@100/10" -> {100, 10}
  /// Free-form argument for path-like specs: `file:<path.gridml>` parses
  /// to name "file" + payload "<path.gridml>" with NO dim/rate parsing
  /// (paths may contain ':', 'x', '@' and '/'). Empty for every other
  /// family.
  std::string payload;
  /// Accumulated `tcp-lv08:`/`lossy:`/`wifi:` decorator prefixes
  /// (ideal when the spec carries none).
  simnet::LinkModelSpec link_model;
  /// Accumulated `bg:<flows>:` decorator (inactive by default).
  simnet::BackgroundSpec background;

  static Result<ScenarioSpec> parse(const std::string& text);
  /// Canonical spec string; `parse(s.to_string())` round-trips.
  [[nodiscard]] std::string to_string() const;
};

class ScenarioRegistry {
 public:
  using Factory = std::function<Result<simnet::Scenario>(const ScenarioSpec&)>;

  struct Entry {
    std::string name;
    std::string synopsis;  ///< e.g. "dumbbell[:LxR][@port/bottleneck]"
    std::string description;
    Factory factory;
  };

  ScenarioRegistry() = default;

  void add(Entry entry);

  /// Build a scenario from a spec string ("ens-lyon", "star:8@100", ...).
  /// Unknown names fail with `not_found` listing what is available;
  /// malformed or out-of-range parameters fail with `invalid_argument`.
  /// The returned scenario's `name` is stamped with the canonical spec
  /// string (`ScenarioSpec::to_string`), so "dumbbell:4x4@100/10" and
  /// "dumbbell" are distinguishable downstream (e.g. as map-cache keys).
  [[nodiscard]] Result<simnet::Scenario> make(const std::string& spec_text) const;
  [[nodiscard]] Result<simnet::Scenario> make(const ScenarioSpec& spec) const;

  /// Entries sorted by name.
  [[nodiscard]] std::vector<const Entry*> entries() const;
  /// Human-readable catalog (the `--list` output of the benches).
  [[nodiscard]] std::string render_catalog() const;

  /// The shared registry with every simnet builder pre-registered.
  static const ScenarioRegistry& builtin();

 private:
  std::map<std::string, Entry> entries_;
};

}  // namespace envnws::api

// Persistent cache of mapped platforms.
//
// The paper's §4.3 workflow publishes a finished mapping so it can be
// reused without re-probing ("Once the network mapped, we can deploy the
// NWS using this mapping" — and re-deploy forever). `MapCache` makes that
// workflow durable: a merged `env::MapResult` is written to disk as one
// XML document per (scenario, probe options) key, and
// `api::Session::map()` transparently reloads it, performing ZERO probe
// experiments on the reload path.
//
// Keys couple the scenario spec label with a hash of every probe-relevant
// `MapperOptions` field, so changing a threshold or the probe payload
// invalidates naturally. `map_threads` is deliberately NOT part of the
// key: the mapped view is identical for any thread count.
//
// An entry is the published GridML document plus what GridML does not
// carry: the per-zone specs, masters, stats and warnings. The effective
// view is stored once, as the document's published NETWORK tree, and
// reloads through `env::published_view` at GridML's published precision
// (two decimals of Mbit/s) — the same view `Session::load_map_from_gridml`
// serves. Nothing after the map stage reads the view's bandwidths, so a
// reloaded result re-plans byte-identically. Probe-time scaffolding
// (per-zone structural trees and per-zone GridML documents) is not
// persisted: a reloaded result is not meant to be re-merged.
//
// There are no eviction bounds: an entry lives until invalidate() drops
// it or a store() of the same key overwrites it.
#pragma once

#include <string>

#include "common/result.hpp"
#include "env/mapper.hpp"
#include "env/options.hpp"
#include "simnet/topology.hpp"

namespace envnws::api {

class MapCache {
 public:
  /// The directory is created lazily on the first store().
  explicit MapCache(std::string directory);

  [[nodiscard]] const std::string& directory() const { return directory_; }

  /// Cache key: sanitized scenario label + hash of the probe-relevant
  /// mapper options (thresholds, payload, gap, site labels, purpose,
  /// bidirectional flags — NOT map_threads).
  [[nodiscard]] static std::string key_for(const std::string& scenario_label,
                                           const env::MapperOptions& options);

  /// Hash of the ground-truth platform (nodes, addresses, zones,
  /// aliases, links, capacities). `api::Session` folds this into its
  /// default cache label: scenario names alone are unreliable keys —
  /// the bare simnet builders stamp the same name for every size
  /// (`simnet::multi_firewall(2,2)` and `(8,50)` are both
  /// "multi-firewall") — so a changed platform under an unchanged name
  /// must still miss.
  [[nodiscard]] static std::string platform_fingerprint(const simnet::Topology& topology);

  /// File a given key is stored at (whether or not it exists yet).
  [[nodiscard]] std::string path_for(const std::string& key) const;

  /// Reload a cached mapping. `not_found` when the entry does not exist;
  /// `protocol` when the file exists but cannot be parsed (e.g. written
  /// by an incompatible version) — callers should treat both as a miss.
  [[nodiscard]] Result<env::MapResult> load(const std::string& key) const;

  /// Persist a mapping (overwrites any previous entry for the key).
  Status store(const std::string& key, const env::MapResult& map) const;

  /// Explicitly drop one entry. Succeeds when the entry was absent.
  Status invalidate(const std::string& key) const;

 private:
  std::string directory_;
};

}  // namespace envnws::api

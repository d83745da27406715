// Static routing over the topology graph.
//
// Routes minimize the sum of per-direction link weights (defaulting to 1
// per hop), with deterministic tie-breaking. Because weights are
// *directional*, giving a slow uplink a small forward weight and a large
// reverse weight reproduces the asymmetric routes of the ENS-Lyon network
// (paper §4.3) without any special-case machinery. Explicit per-pair
// overrides are also supported for tests. Shortest-path trees are
// cached per source under a memory budget (see RouteTable).
//
// Leaf collapse: a node with exactly one link, whose neighbour (its
// gateway) has two or more, owns no tree. Its route to any destination is
// the hop to its gateway followed by the gateway's tree path, the way a
// host inside a SimGrid zone routes through the zone's gateway. This is
// exact: every route of the leaf leaves through its one link, so Dijkstra
// from the leaf and from the gateway see the same equal-cost
// predecessors and the lowest-link-id tie-break picks the same hop —
// provided weights are non-negative (Topology::validate) and path-weight
// sums are exact in double, as they are for small dyadic weights such as
// 1, 0.5, 50 and 100. On a star of n hosts this is one tree, not n.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.hpp"
#include "simnet/topology.hpp"
#include "simnet/types.hpp"

namespace envnws::simnet {

/// One step of a path: traverse `link` from `from` to `to`.
struct Hop {
  LinkId link;
  NodeId from;
  NodeId to;
};

struct Path {
  NodeId src;
  NodeId dst;
  std::vector<Hop> hops;

  [[nodiscard]] bool empty() const { return hops.empty(); }
  [[nodiscard]] double total_latency(const Topology& topo) const;
  /// Capacity of the narrowest traversed element, including hub media.
  [[nodiscard]] double bottleneck_bandwidth(const Topology& topo) const;
};

/// Lazily-built, memory-bounded cache of per-source shortest-path trees.
///
/// A tree is built (one Dijkstra run) the first time a source is
/// queried; a leaf source uses its gateway's tree (leaf collapse above).
/// The cache holds at most `kMaxCachedHops` predecessor entries in total
/// — `max(1, kMaxCachedHops / V)` trees on a V-node topology — and
/// evicts the least-recently-used tree beyond that. Every tree fits
/// up to about 1,100 nodes, so an all-pairs sweep builds each source's
/// tree once; a 10k-node topology where every host traceroutes once
/// (ENV phase 1c) keeps ~128 trees instead of O(V²) entries — gigabytes.
class RouteTable {
 public:
  /// Predecessor entries (one Hop per node per cached tree) the cache
  /// may hold at once: 128 trees of a 10k-node topology.
  static constexpr std::size_t kMaxCachedHops = 128 * 10000;

  explicit RouteTable(const Topology& topo);

  /// Shortest path honoring directional weights, written over `out`
  /// (whose hop storage is reused); Error if unreachable.
  Status path_into(NodeId src, NodeId dst, Path& out) const;
  /// path_into() as a value.
  [[nodiscard]] Result<Path> path(NodeId src, NodeId dst) const;

  /// Trees currently cached: at most `max(1, kMaxCachedHops / V)`.
  [[nodiscard]] std::size_t cached_trees() const { return built_count_; }
  /// Trees built since construction, rebuilds after eviction included.
  [[nodiscard]] std::uint64_t trees_built() const { return trees_built_; }

 private:
  void build_from(NodeId src) const;

  const Topology& topo_;
  std::size_t max_trees_;
  // lead_[leaf] = hop from a leaf to its gateway; invalid for tree roots.
  std::vector<Hop> lead_;
  // Lazily-built Dijkstra predecessor trees, one per source.
  mutable std::vector<bool> built_;
  // pred_[src][node] = hop taken to reach `node` from `src`.
  mutable std::vector<std::vector<Hop>> pred_;
  // LRU bookkeeping of the built trees.
  mutable std::vector<std::uint64_t> last_used_;
  mutable std::uint64_t use_clock_ = 0;
  mutable std::size_t built_count_ = 0;
  mutable std::uint64_t trees_built_ = 0;
};

}  // namespace envnws::simnet

#include "simnet/routing.hpp"

#include <algorithm>
#include <limits>
#include <queue>

namespace envnws::simnet {

double Path::total_latency(const Topology& topo) const {
  double total = 0.0;
  for (const Hop& hop : hops) total += topo.link(hop.link).latency_s;
  return total;
}

double Path::bottleneck_bandwidth(const Topology& topo) const {
  double bw = std::numeric_limits<double>::infinity();
  for (const Hop& hop : hops) {
    bw = std::min(bw, topo.capacity(hop.link, hop.from));
    const Node& to = topo.node(hop.to);
    if (to.kind == NodeKind::hub) bw = std::min(bw, to.hub_capacity_bps);
  }
  return bw;
}

RouteTable::RouteTable(const Topology& topo)
    : topo_(topo),
      max_trees_(std::max<std::size_t>(
          1, kMaxCachedHops / std::max<std::size_t>(1, topo.node_count()))),
      lead_(topo.node_count(), Hop{LinkId::invalid(), NodeId::invalid(), NodeId::invalid()}),
      built_(topo.node_count(), false),
      pred_(topo.node_count()),
      last_used_(topo.node_count(), 0) {
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    const NodeId node{static_cast<NodeId::underlying_type>(i)};
    const auto& links = topo.node(node).links;
    if (links.size() != 1) continue;
    const NodeId gateway = topo.peer(links.front(), node);
    if (topo.node(gateway).links.size() >= 2) lead_[i] = Hop{links.front(), node, gateway};
  }
}

void RouteTable::build_from(NodeId src) const {
  if (built_count_ >= max_trees_) {
    // Evict the least-recently-used tree so the cache stays bounded.
    std::size_t victim = topo_.node_count();
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < built_.size(); ++i) {
      if (built_[i] && i != src.index() && last_used_[i] < oldest) {
        oldest = last_used_[i];
        victim = i;
      }
    }
    if (victim < topo_.node_count()) {
      built_[victim] = false;
      std::vector<Hop>().swap(pred_[victim]);  // actually release the memory
      --built_count_;
    }
  }
  const std::size_t n = topo_.node_count();
  auto& pred = pred_[src.index()];
  pred.assign(n, Hop{LinkId::invalid(), NodeId::invalid(), NodeId::invalid()});
  // Distances are only needed while relaxing; keeping them per source
  // would double the cache footprint for no post-build benefit.
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  dist[src.index()] = 0.0;

  // (distance, node id) min-heap; the id component makes ties deterministic.
  using Entry = std::pair<double, NodeId::underlying_type>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.emplace(0.0, src.value());
  while (!heap.empty()) {
    const auto [d, uv] = heap.top();
    heap.pop();
    const NodeId u{uv};
    if (d > dist[u.index()]) continue;
    for (LinkId lid : topo_.node(u).links) {
      const NodeId v = topo_.peer(lid, u);
      const double w = topo_.routing_weight(lid, u);
      const double nd = d + w;
      // Strict improvement, or an equal-cost path through a
      // lower-numbered link: keeps route selection deterministic.
      const bool better = nd < dist[v.index()] ||
                          (nd == dist[v.index()] && pred[v.index()].link.valid() &&
                           lid < pred[v.index()].link);
      if (better) {
        dist[v.index()] = nd;
        pred[v.index()] = Hop{lid, u, v};
        heap.emplace(nd, v.value());
      }
    }
  }
  built_[src.index()] = true;
  ++built_count_;
  ++trees_built_;
}

Status RouteTable::path_into(NodeId src, NodeId dst, Path& out) const {
  out.src = src;
  out.dst = dst;
  out.hops.clear();
  if (src == dst) return {};

  const Hop& lead = lead_[src.index()];
  const NodeId root = lead.link.valid() ? lead.to : src;
  if (dst != root) {
    if (!built_[root.index()]) build_from(root);
    last_used_[root.index()] = ++use_clock_;
    const auto& pred = pred_[root.index()];
    if (!pred[dst.index()].link.valid()) {
      return make_error(ErrorCode::unreachable,
                        "no route from " + topo_.node(src).name + " to " + topo_.node(dst).name);
    }
    for (NodeId cursor = dst; cursor != root; cursor = pred[cursor.index()].from) {
      out.hops.push_back(pred[cursor.index()]);
    }
  }
  if (lead.link.valid()) out.hops.push_back(lead);
  std::reverse(out.hops.begin(), out.hops.end());
  return {};
}

Result<Path> RouteTable::path(NodeId src, NodeId dst) const {
  Path path;
  if (const Status status = path_into(src, dst, path); !status.ok()) return status.error();
  return path;
}

}  // namespace envnws::simnet

#include "deploy/query.hpp"

#include <algorithm>
#include <deque>
#include <limits>

namespace envnws::deploy {

const char* to_string(QueryMethod method) {
  switch (method) {
    case QueryMethod::direct: return "direct";
    case QueryMethod::substituted: return "substituted";
    case QueryMethod::aggregated: return "aggregated";
  }
  return "?";
}

namespace {
std::pair<std::string, std::string> ordered(const std::string& a, const std::string& b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}
}  // namespace

CoverageGraph::Resolver topology_resolver(const simnet::Topology& topo) {
  return [&topo](const std::string& machine) {
    if (auto id = topo.find_host_by_fqdn(machine); id.ok()) {
      return topo.node(id.value()).name;
    }
    return machine;  // assume it already is a node name
  };
}

CoverageGraph::CoverageGraph(const DeploymentPlan& plan, Resolver resolve) {
  if (!resolve) resolve = [](const std::string& name) { return name; };
  // Union-find over the links, keyed by each node's first-seen index.
  std::vector<std::size_t> parent;
  const auto find = [&parent](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  const auto index_of = [this, &parent](const std::string& node) {
    const auto [it, added] = component_.emplace(node, parent.size());
    if (added) parent.push_back(parent.size());
    return it->second;
  };
  const auto link = [&](const std::string& a, const std::string& b,
                        const std::string& series_a, const std::string& series_b) {
    pair_to_series_.emplace(ordered(a, b), std::make_pair(series_a, series_b));
    adjacency_[a].push_back(b);
    adjacency_[b].push_back(a);
    const std::size_t root_a = find(index_of(a));
    parent[root_a] = find(index_of(b));
  };

  // Directly measured pairs: every pair of every clique.
  for (const auto& clique : plan.cliques) {
    std::vector<std::string> members;
    members.reserve(clique.members.size());
    for (const auto& member : clique.members) members.push_back(resolve(member));
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        link(members[i], members[j], members[i], members[j]);
      }
    }
  }
  // Substituted pairs: covered pairs answered by the representative pair.
  for (const auto& substitution : plan.substitutions) {
    const std::string rep_a = resolve(substitution.rep_a);
    const std::string rep_b = resolve(substitution.rep_b);
    std::vector<std::string> covered;
    covered.reserve(substitution.covered.size());
    for (const auto& machine : substitution.covered) covered.push_back(resolve(machine));
    for (std::size_t i = 0; i < covered.size(); ++i) {
      for (std::size_t j = i + 1; j < covered.size(); ++j) {
        if (pair_to_series_.count(ordered(covered[i], covered[j])) == 0) {
          link(covered[i], covered[j], rep_a, rep_b);
        }
      }
    }
  }
  for (auto& entry : component_) entry.second = find(entry.second);
}

const std::pair<std::string, std::string>* CoverageGraph::measured_pair(
    const std::string& a, const std::string& b) const {
  const auto it = pair_to_series_.find(ordered(a, b));
  return it == pair_to_series_.end() ? nullptr : &it->second;
}

std::vector<std::pair<std::string, std::string>> CoverageGraph::route(
    const std::string& src, const std::string& dst) const {
  if (src == dst) return {};
  if (const auto* direct = measured_pair(src, dst)) return {*direct};

  // Breadth-first search over the measured-pair graph (fewest segments
  // means fewest stacked estimation errors).
  std::map<std::string, std::string> parent;
  std::deque<std::string> frontier{src};
  parent[src] = src;
  while (!frontier.empty()) {
    const std::string current = frontier.front();
    frontier.pop_front();
    if (current == dst) break;
    const auto it = adjacency_.find(current);
    if (it == adjacency_.end()) continue;
    for (const auto& next : it->second) {
      if (parent.count(next) == 0) {
        parent[next] = current;
        frontier.push_back(next);
      }
    }
  }
  if (parent.count(dst) == 0) return {};
  std::vector<std::pair<std::string, std::string>> chain;
  for (std::string cursor = dst; cursor != src; cursor = parent[cursor]) {
    const auto& series = *measured_pair(parent[cursor], cursor);
    // Directly-measured segments keep the *walk* orientation — on
    // asymmetric routes the two directions have different series and the
    // query must follow the direction travelled. Substituted segments
    // keep the representative pair's own orientation.
    if (ordered(series.first, series.second) == ordered(parent[cursor], cursor)) {
      chain.emplace_back(parent[cursor], cursor);
    } else {
      chain.push_back(series);
    }
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

std::optional<std::size_t> CoverageGraph::component(const std::string& node) const {
  const auto it = component_.find(node);
  if (it == component_.end()) return std::nullopt;
  return it->second;
}

std::string QueryService::resolve(const std::string& machine) const {
  return topology_resolver(system_.network().topology())(machine);
}

QueryService::QueryService(nws::NwsSystem& system, const DeploymentPlan& plan)
    : system_(system),
      plan_(plan),
      coverage_(plan, topology_resolver(system.network().topology())) {}

Result<PathQueryReply> QueryService::query(nws::ResourceKind kind, const std::string& client,
                                           const std::string& src, const std::string& dst) {
  const std::string src_node = resolve(src);
  const std::string dst_node = resolve(dst);
  const auto chain = coverage_.route(src_node, dst_node);
  if (chain.empty()) {
    return make_error(ErrorCode::not_found,
                      "deployment cannot answer for (" + src + ", " + dst + ")");
  }

  PathQueryReply reply;
  reply.segments = chain;
  if (chain.size() == 1) {
    const bool direct = ordered(chain.front().first, chain.front().second) ==
                        ordered(src_node, dst_node);
    reply.method = direct ? QueryMethod::direct : QueryMethod::substituted;
  } else {
    reply.method = QueryMethod::aggregated;
  }

  double bandwidth = std::numeric_limits<double>::infinity();
  double latency = 0.0;
  for (const auto& [a, b] : chain) {
    auto piece = system_.query(resolve(client), nws::SeriesKey{kind, a, b});
    if (!piece.ok()) {
      // The series may exist in the other direction only.
      piece = system_.query(resolve(client), nws::SeriesKey{kind, b, a});
    }
    if (!piece.ok()) return piece.error();
    if (kind == nws::ResourceKind::bandwidth) {
      bandwidth = std::min(bandwidth, piece.value().forecast.value);
    } else {
      latency += piece.value().forecast.value;
    }
  }
  reply.value = kind == nws::ResourceKind::bandwidth ? bandwidth : latency;
  return reply;
}

Result<PathQueryReply> QueryService::bandwidth(const std::string& client,
                                               const std::string& src,
                                               const std::string& dst) {
  return query(nws::ResourceKind::bandwidth, client, src, dst);
}

Result<PathQueryReply> QueryService::latency(const std::string& client, const std::string& src,
                                             const std::string& dst) {
  return query(nws::ResourceKind::latency, client, src, dst);
}

}  // namespace envnws::deploy

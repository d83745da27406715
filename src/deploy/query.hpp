// Completeness layer: answering queries about ANY host pair (§2.3).
//
// The NWS itself can only answer for pairs some clique measures. The
// deployment plan closes the gap with two mechanisms the paper calls for:
//   - substitution: on a shared segment, the representative pair's series
//     answers for every covered pair ("NWS is unable to substitute
//     automatically ... the user has to keep track of this" — this layer
//     is that bookkeeping, automated);
//   - aggregation: when no direct or substituted series exists, chain the
//     measured segments along the clique graph: latencies add up,
//     bandwidths take the minimum ("A-B-C gateway" example of §2.3).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "deploy/plan.hpp"
#include "nws/system.hpp"

namespace envnws::deploy {

enum class QueryMethod { direct, substituted, aggregated };

[[nodiscard]] const char* to_string(QueryMethod method);

/// Static view of which host pairs a plan can answer for, and through
/// which measured series. Usable without a running NWS (the validator's
/// completeness check) as well as by the live QueryService.
class CoverageGraph {
 public:
  using Resolver = std::function<std::string(const std::string&)>;

  /// `resolve` maps plan machine names to series/node names (identity by
  /// default).
  CoverageGraph(const DeploymentPlan& plan, Resolver resolve = nullptr);

  /// Direct or substituted measured pair answering for (a, b), if any.
  [[nodiscard]] const std::pair<std::string, std::string>* measured_pair(
      const std::string& a, const std::string& b) const;
  /// The measured-pair chain answering for (src, dst); empty if none.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> route(
      const std::string& src, const std::string& dst) const;
  /// Connected-component id of `node`; nullopt for a node no measured or
  /// substituted pair touches. The links are symmetric, so two distinct
  /// nodes are coverable from each other (`route()` finds a chain)
  /// exactly when their ids are equal.
  [[nodiscard]] std::optional<std::size_t> component(const std::string& node) const;

 private:
  std::map<std::string, std::vector<std::string>> adjacency_;
  std::map<std::string, std::size_t> component_;
  std::map<std::pair<std::string, std::string>, std::pair<std::string, std::string>>
      pair_to_series_;
};

struct PathQueryReply {
  double value = 0.0;  ///< forecast (bit/s or seconds)
  QueryMethod method = QueryMethod::direct;
  /// The measured pairs combined to produce the value (>1 => aggregated).
  std::vector<std::pair<std::string, std::string>> segments;
};

class QueryService {
 public:
  /// `plan` members are canonical machine names; they are resolved to
  /// topology node names through the system's network.
  QueryService(nws::NwsSystem& system, const DeploymentPlan& plan);

  /// End-to-end bandwidth forecast between any two deployed hosts.
  Result<PathQueryReply> bandwidth(const std::string& client, const std::string& src,
                                   const std::string& dst);
  /// End-to-end latency forecast (seconds).
  Result<PathQueryReply> latency(const std::string& client, const std::string& src,
                                 const std::string& dst);
  [[nodiscard]] const CoverageGraph& coverage() const { return coverage_; }

 private:
  [[nodiscard]] std::string resolve(const std::string& machine) const;
  Result<PathQueryReply> query(nws::ResourceKind kind, const std::string& client,
                               const std::string& src, const std::string& dst);

  nws::NwsSystem& system_;
  DeploymentPlan plan_;
  CoverageGraph coverage_;
};

/// Resolver mapping canonical machine fqdns to topology node names.
[[nodiscard]] CoverageGraph::Resolver topology_resolver(const simnet::Topology& topo);

}  // namespace envnws::deploy

// NWS measurement cliques: token-ring mutual exclusion for network
// experiments (paper §2.3 and Wolski/Gaidioz/Tourancheau, HPDC'00).
//
// Hosts connected by a common physical medium are grouped into a clique;
// only the member currently holding the clique token may launch network
// experiments, so measurements never collide on a link and never observe
// each other's traffic. Token loss (a member dying while holding it) is
// recovered by a watchdog: after a silence period, the lowest-ranked
// alive member wins the leader election and regenerates the token with a
// higher generation number; stale tokens are discarded.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "nws/hostlocks.hpp"
#include "nws/memory.hpp"
#include "nws/series.hpp"
#include "simnet/network.hpp"

namespace envnws::nws {

/// "Given n computers, there is n x (n-1) links to test": pair k of a
/// clique's schedule is member k/(n-1), then the (k mod (n-1))-th other
/// member. The token ring (Clique), validate_plan and the monitor's
/// cycle scheduler all walk this index arithmetic; none stores the
/// pairs. "Other" means another position: see distinct_members.
template <class Node>
[[nodiscard]] std::uint64_t pair_count(const std::vector<Node>& members) {
  const std::uint64_t n = members.size();
  return n < 2 ? 0 : n * (n - 1);
}

/// Pair k < pair_count(members) of the clique schedule.
template <class Node>
[[nodiscard]] std::pair<const Node&, const Node&> pair_at(const std::vector<Node>& members,
                                                          std::uint64_t k) {
  const std::uint64_t others = members.size() - 1;
  const auto from = static_cast<std::size_t>(k / others);
  auto to = static_cast<std::size_t>(k % others);
  if (to >= from) ++to;
  return {members[from], members[to]};
}

/// `members` with every repeat dropped, first occurrence kept: the
/// members a rotating schedule walks, so a host named twice is probed
/// once per pair. The planner builds inter cliques through it too: a
/// gateway that represents several sibling groups joins once.
template <class Node>
[[nodiscard]] std::vector<Node> distinct_members(const std::vector<Node>& members) {
  std::set<Node> seen;
  std::vector<Node> distinct;
  for (const Node& member : members) {
    if (seen.insert(member).second) distinct.push_back(member);
  }
  return distinct;
}

struct CliqueSpec {
  std::string name;
  std::vector<simnet::NodeId> members;  ///< a repeat is dropped (distinct_members)
  /// Idle time between two consecutive experiments of this clique.
  double period_s = 10.0;
  std::int64_t bandwidth_probe_bytes = units::kib(64);
  /// Extension (paper conclusion): number of tokens circulating
  /// concurrently. More than 1 is only safe on switched segments AND
  /// with a HostLockService guarding the endpoints.
  std::size_t parallel_tokens = 1;
};

class Clique {
 public:
  /// `locks` (optional) enables host-level locking around experiments —
  /// the paper-conclusion extension; nullptr keeps the classic protocol.
  Clique(simnet::Network& net, CliqueSpec spec, MemoryServer& memory,
         HostLockService* locks = nullptr);

  /// Inject the initial token and arm the loss watchdog.
  void start();
  void stop();

  [[nodiscard]] const CliqueSpec& spec() const { return spec_; }
  [[nodiscard]] const std::string& name() const { return spec_.name; }
  [[nodiscard]] std::uint64_t experiments_run() const { return experiments_; }
  [[nodiscard]] std::uint64_t token_passes() const { return token_passes_; }
  [[nodiscard]] std::uint64_t regenerations() const { return regenerations_; }
  [[nodiscard]] std::uint64_t lock_waits() const { return lock_waits_; }
  /// The schedule's ordered experiment pairs (pair_at over the spec's
  /// distinct members).
  [[nodiscard]] std::uint64_t pair_count() const { return nws::pair_count(spec_.members); }
  [[nodiscard]] std::pair<simnet::NodeId, simnet::NodeId> pair_at(std::uint64_t k) const {
    return nws::pair_at(spec_.members, k);
  }
  /// Expected wall-clock for one full cycle over all pairs.
  [[nodiscard]] double expected_cycle_time() const;

 private:
  struct Token {
    std::size_t schedule_index = 0;
    std::uint64_t generation = 0;
  };

  void deliver_token(Token token, simnet::NodeId holder);
  void run_experiment(Token token, simnet::NodeId holder);
  void finish_experiment(Token token, simnet::NodeId holder, bool release_locks,
                         simnet::NodeId src, simnet::NodeId dst);
  void pass_token(Token token, simnet::NodeId from);
  void arm_watchdog();
  void release_all_locks();
  void store(simnet::NodeId reporter, const SeriesKey& key, double value);

  simnet::Network& net_;
  CliqueSpec spec_;
  MemoryServer& memory_;
  HostLockService* locks_ = nullptr;
  /// Endpoint pairs currently held via the lock service (released on
  /// completion; force-released when the watchdog regenerates).
  std::vector<std::pair<simnet::NodeId, simnet::NodeId>> held_locks_;
  bool running_ = false;
  std::uint64_t generation_ = 0;
  double last_token_activity_ = 0.0;
  std::size_t last_known_index_ = 0;
  std::uint64_t experiments_ = 0;
  std::uint64_t token_passes_ = 0;
  std::uint64_t regenerations_ = 0;
  std::uint64_t lock_waits_ = 0;
};

}  // namespace envnws::nws

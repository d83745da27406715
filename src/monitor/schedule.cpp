#include "monitor/schedule.hpp"

#include <algorithm>

#include "nws/clique.hpp"

namespace envnws::monitor {

CycleScheduler::CycleScheduler(const deploy::DeploymentPlan& plan) {
  for (const deploy::PlannedClique& clique : plan.cliques) {
    CliqueSchedule schedule;
    schedule.segment = clique.segment();
    schedule.members = nws::distinct_members(clique.members);
    const std::uint64_t pairs = nws::pair_count(schedule.members);
    if (pairs == 0) continue;  // single-member clique: nothing to measure
    schedule.tokens =
        static_cast<std::size_t>(std::clamp<std::uint64_t>(clique.parallel_tokens, 1, pairs));
    cliques_.push_back(std::move(schedule));
  }
}

void CycleScheduler::cycle(std::uint64_t k, std::vector<ScheduledProbe>& probes) const {
  probes.resize(probes_per_cycle());
  std::size_t next = 0;
  for (const CliqueSchedule& clique : cliques_) {
    // Token t of cycle k probes pair (k*tokens + t) mod pairs: the
    // multi-token walk covers every pair exactly like the
    // single-token one, just `tokens` pairs per cycle. Tokens of one
    // cycle never collide (tokens <= pairs), though their pairs may
    // share endpoints — run_batch serializes exactly those.
    const std::uint64_t pairs = nws::pair_count(clique.members);
    for (std::size_t t = 0; t < clique.tokens; ++t) {
      const auto [from, to] = nws::pair_at(clique.members, (k * clique.tokens + t) % pairs);
      ScheduledProbe& probe = probes[next++];
      probe.segment = clique.segment;
      probe.transfer.from = from;
      probe.transfer.to = to;
    }
  }
}

std::size_t CycleScheduler::probes_per_cycle() const {
  std::size_t total = 0;
  for (const CliqueSchedule& clique : cliques_) total += clique.tokens;
  return total;
}

std::uint64_t CycleScheduler::pairs_total() const {
  std::uint64_t total = 0;
  for (const CliqueSchedule& clique : cliques_) total += nws::pair_count(clique.members);
  return total;
}

}  // namespace envnws::monitor

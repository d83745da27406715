#include "monitor/schedule.hpp"

#include <algorithm>

#include "nws/clique.hpp"

namespace envnws::monitor {

CycleScheduler::CycleScheduler(const deploy::DeploymentPlan& plan) {
  for (const deploy::PlannedClique& clique : plan.cliques) {
    CliqueSchedule schedule;
    schedule.name = clique.name;
    schedule.segment = clique.segment();
    schedule.pairs = nws::ordered_experiment_pairs(clique.members);
    if (schedule.pairs.empty()) continue;  // single-member clique: nothing to measure
    schedule.tokens = std::clamp<std::size_t>(clique.parallel_tokens, 1, schedule.pairs.size());
    cliques_.push_back(std::move(schedule));
  }
}

std::vector<ScheduledProbe> CycleScheduler::cycle(std::uint64_t k) const {
  std::vector<ScheduledProbe> probes;
  probes.reserve(probes_per_cycle());
  for (const CliqueSchedule& clique : cliques_) {
    // Token t of cycle k probes pair (k*tokens + t) mod pairs: the
    // multi-token walk covers the whole pair list exactly like the
    // single-token one, just `tokens` pairs per cycle. Tokens of one
    // cycle never collide (tokens <= pairs), though their pairs may
    // share endpoints — run_batch serializes exactly those.
    const std::uint64_t pairs = clique.pairs.size();
    for (std::size_t t = 0; t < clique.tokens; ++t) {
      const auto& pair = clique.pairs[static_cast<std::size_t>(
          (k * clique.tokens + t) % pairs)];
      ScheduledProbe probe;
      probe.clique = clique.name;
      probe.segment = clique.segment;
      probe.transfer = env::BandwidthRequest{pair.first, pair.second, {}};
      probes.push_back(std::move(probe));
    }
  }
  return probes;
}

std::size_t CycleScheduler::probes_per_cycle() const {
  std::size_t total = 0;
  for (const CliqueSchedule& clique : cliques_) total += clique.tokens;
  return total;
}

std::uint64_t CycleScheduler::pairs_total() const {
  std::uint64_t total = 0;
  for (const CliqueSchedule& clique : cliques_) total += clique.pairs.size();
  return total;
}

std::uint64_t CycleScheduler::full_sweep_cycles() const {
  std::uint64_t sweep = 0;
  for (const CliqueSchedule& clique : cliques_) {
    const std::uint64_t pairs = clique.pairs.size();
    const std::uint64_t tokens = clique.tokens;
    sweep = std::max(sweep, (pairs + tokens - 1) / tokens);
  }
  return sweep;
}

}  // namespace envnws::monitor

// Monitoring clock and cycle scheduler.
//
// The daemon's measurement loop is driven by a VIRTUAL clock: time
// advances by exactly one period per cycle, so series timestamps — and
// with them snapshot digests — depend only on the cycle count, never on
// wall-clock jitter. Live deployments pace the loop in real time on top
// (MonitorOptions::pace); replayed ones do not, and both produce the
// bit-identical measurement record.
//
// The CycleScheduler turns a validated deploy::DeploymentPlan into the
// per-cycle experiment list: each clique contributes `parallel_tokens`
// experiments per cycle, rotating round-robin through nws::pair_at over
// its distinct members (the token ring's schedule; never stored). The
// resulting list is in plan order, which makes it the canonical batch
// order for ProbeEngine::run_batch: what runs concurrently may vary with
// probe_jobs, what is measured never does.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "deploy/plan.hpp"
#include "env/probe_engine.hpp"

namespace envnws::monitor {

/// Deterministic monitoring time: now() == period_s * cycles().
class MonitorClock {
 public:
  explicit MonitorClock(double period_s) : period_s_(period_s) {}

  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] double period_s() const { return period_s_; }
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }

  /// End of one cycle: advance exactly one period.
  void tick() {
    ++cycles_;
    now_ = period_s_ * static_cast<double>(cycles_);
  }

 private:
  double period_s_;
  double now_ = 0.0;
  std::uint64_t cycles_ = 0;
};

/// One experiment of a monitoring cycle.
struct ScheduledProbe {
  /// PlannedClique::segment() (drift/re-map unit), held by the scheduler.
  std::string_view segment;
  env::BandwidthRequest transfer;
};

class CycleScheduler {
 public:
  explicit CycleScheduler(const deploy::DeploymentPlan& plan);

  /// Replace `probes` with the experiments of cycle `k`, in plan order
  /// (the canonical batch order). Deterministic: same plan + same k =>
  /// same list. A buffer reused across cycles keeps its strings' storage,
  /// so a warm cycle allocates nothing here.
  void cycle(std::uint64_t k, std::vector<ScheduledProbe>& probes) const;

  /// Experiments every cycle issues (constant across cycles).
  [[nodiscard]] std::size_t probes_per_cycle() const;
  /// Distinct ordered pairs across all cliques (with multiplicity).
  [[nodiscard]] std::uint64_t pairs_total() const;

 private:
  struct CliqueSchedule {
    std::string segment;
    std::vector<std::string> members;  ///< nws::distinct_members
    std::size_t tokens = 1;            ///< experiments per cycle (clamped to pairs)
  };

  std::vector<CliqueSchedule> cliques_;
};

}  // namespace envnws::monitor

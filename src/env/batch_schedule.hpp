// The within-zone batch schedule model — and its single bookkeeping.
//
// PR 2 parallelized mapping ACROSS firewall zones; the experiments
// INSIDE a zone still execute one after another. On a switched segment,
// though, member<->member transfers with disjoint endpoint sets do not
// contend (phase 2d's verdict is exactly that observation), so a real
// probing backend can run `probe_jobs` of them at once. Everything that
// reasons about that overlap — the makespan model bench_mapping_cost
// plots, the genuinely concurrent dispatch in SocketProbeEngine::
// run_batch, and the schedule-exploration harness (src/testing/) that
// permutes dispatch interleavings — shares ONE definition of "may these
// two experiments overlap": the `BatchDispatcher` below. A divergence
// between model and realized schedule is therefore a compile error, not
// a latent race.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "env/probe_engine.hpp"

namespace envnws::testing {
class VirtualScheduler;
}  // namespace envnws::testing

namespace envnws::env {

/// The endpoint set of one experiment — the names whose network
/// adapters the experiment occupies. This is THE definition of "shares
/// an endpoint" for the disjointness rule: the schedule model below and
/// the realized schedule in SocketProbeEngine::run_batch must agree on
/// it, so both use this one helper. A transfer with a non-empty `via`
/// occupies only that adapter of its source ("host%addr"), so two
/// transfers leaving a multi-homed master through different NICs count
/// as disjoint and may overlap.
[[nodiscard]] std::vector<std::string> experiment_endpoints(const ProbeExperiment& experiment);

/// The endpoint-constrained dispatch bookkeeping of one batch: which
/// experiments have started/finished and which endpoints are in flight.
/// Callers (the makespan model, the socket engine's worker loop, the
/// virtual dispatcher) own WHEN to start and finish; the dispatcher
/// owns WHAT is legal and records the first violation of the contract —
/// starting a conflicting or already-started experiment, finishing one
/// that never started — instead of asserting, so the exploration
/// harness can surface an injected bug as a diagnosable error.
///
/// Not internally synchronized: concurrent users (the socket engine)
/// hold their own mutex around every call.
class BatchDispatcher {
 public:
  explicit BatchDispatcher(const std::vector<ProbeExperiment>& experiments);

  /// Experiments that may start NOW, in canonical order: not yet
  /// started and none of their endpoints in flight (later experiments
  /// may overtake a blocked one — their mutual disjointness is exactly
  /// what the batch asserts).
  [[nodiscard]] std::vector<std::size_t> startable() const;

  void start(std::size_t index);
  void finish(std::size_t index);

  [[nodiscard]] std::size_t size() const { return endpoints_.size(); }
  [[nodiscard]] bool all_started() const { return unstarted_ == 0; }
  [[nodiscard]] bool all_finished() const { return unstarted_ == 0 && in_flight_ == 0; }
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }

  /// First contract violation, if any (sticky).
  [[nodiscard]] Status health() const {
    return violation_.has_value() ? Status(*violation_) : Status();
  }

 private:
  void violate(std::string message);

  std::vector<std::vector<std::string>> endpoints_;
  std::vector<bool> started_;
  std::vector<bool> finished_;
  std::map<std::string, int> busy_;
  std::size_t unstarted_ = 0;
  std::size_t in_flight_ = 0;
  std::optional<Error> violation_;
};

/// Makespan of running `experiments[i]` (taking `durations[i]` seconds)
/// over `workers` concurrent slots. Greedy event-driven list scheduling
/// in canonical order: whenever a slot is free, the first startable
/// experiment (BatchDispatcher::startable) starts. Experiments sharing
/// an endpoint therefore serialize — a batch that all pivots on the
/// master (phase 2a/2b) degenerates to the sequential sum no matter how
/// many workers — and `workers <= 1` is exactly the sequential sum by
/// construction.
[[nodiscard]] double batch_makespan(const std::vector<ProbeExperiment>& experiments,
                                    const std::vector<double>& durations, std::size_t workers);

/// Tunables of run_batch_virtual. The injection flag exists ONLY for
/// the exploration harness's self-test: it plants the classic
/// "results indexed by completion order" bug so the test suite can
/// prove the explorer catches and shrinks exactly this class of defect.
/// Production callers always pass the default.
struct VirtualBatchOptions {
  bool inject_completion_order_bug = false;
};

/// The schedule-exploration seam of the batch executor: measure the
/// batch through the engine in canonical order (the run_batch contract
/// — the experiment stream, recorded traces and digests stay
/// bit-identical), then drive the REAL dispatch bookkeeping
/// (BatchDispatcher) through every decision the OS would normally make:
/// which startable experiment a free worker picks up, and which
/// in-flight experiment completes first. Both are `scheduler` choices,
/// so a test replays any interleaving from a `sched:` string and the
/// explorer enumerates them. Dispatch-invariant violations (conflict,
/// lost/duplicated experiment, deadlock, i.e. nothing startable and
/// nothing in flight while work remains) are reported as faults on the
/// scheduler; the returned outcomes are reassembled into canonical
/// slots exactly like SocketProbeEngine does — which is the property
/// the harness exists to check.
std::vector<ProbeExperimentOutcome> run_batch_virtual(
    ProbeEngine& engine, const std::vector<ProbeExperiment>& experiments, std::size_t workers,
    testing::VirtualScheduler& scheduler, const VirtualBatchOptions& options = {});

}  // namespace envnws::env

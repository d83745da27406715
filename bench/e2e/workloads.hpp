// The four bench_e2e workloads and what they share. Each one sets up
// several times (setup_s is the median), then runs its timed loop for
// `seconds` of wall time, checks the program's outputs outside the timed
// regions, and fills a Run with the end-to-end metrics (untraced) or the
// per-layer metrics (traced).
//
// A traced run alternates traced and uninstrumented ops, so the per-layer
// numbers and trace.overhead_ratio come from the same run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "report.hpp"
#include "simnet/scenario.hpp"
#include "trace.hpp"

namespace e2e {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool traced = false;
};

void map_scale(const Options& options, Run& run);
void map_sampled(const Options& options, Run& run);
void deploy_multizone(const Options& options, Run& run);
void monitor_mixed(const Options& options, Run& run);

// --- shared by the workloads ------------------------------------------------

[[nodiscard]] double seconds_since(Clock::time_point since);

/// ScenarioRegistry::make under an `api.scenario_make` span; a failure is
/// recorded as a failed check.
[[nodiscard]] std::optional<envnws::simnet::Scenario> make_scenario(const std::string& spec,
                                                                    Run& run);

/// Enable the tracer for the next op (when `traced`) and return the new
/// op's id; end_op() disables the tracer again.
std::uint64_t begin_op(bool traced);
void end_op();

/// Whether to run another set-up after those timed in `walls`: at least
/// 3, then more until they add up to 1.5 s (at most 60). A set-up of a
/// few milliseconds still gets a steady median, and a slow spell of the
/// machine around process start stays a minority of the samples.
[[nodiscard]] bool more_setups(const std::vector<double>& walls);

/// One end-to-end value as measured, at its reference's nominal speed
/// (the gated value), and the reference's median slowdown over the ops.
struct Measured {
  double raw = 0.0;
  double at_reference = 0.0;
  double slowdown = 1.0;
};

/// `statistic` of the ops' times in `calibration`: of their wall times and
/// of their times at reference speed.
template <typename Statistic>
[[nodiscard]] Measured measure(const Calibration& calibration, Statistic statistic) {
  return {statistic(calibration.walls()), statistic(calibration.at_reference()),
          calibration.slowdown()};
}

struct EndToEnd {
  Measured setup_s, op_s, work_per_s;
};

/// Add setup_s, op_s_p50 and work_per_s at reference speed; the raw
/// values and the slowdowns go to the details.
void add_e2e_metrics(Run& run, const EndToEnd& measured);

/// Counts and ratios a workload measures itself for the per-layer set.
struct LayerInputs {
  double flows_per_op = 0.0;
  double messages_per_op = 0.0;
  double experiments_per_op = 0.0;
  double snapshot_publishes_per_cycle = 0.0;
  double queries_served = 0.0;
  double query_snapshot_share = 0.0;
  double query_pair_share = 0.0;
  /// Median traced op over median uninstrumented op.
  double overhead_ratio = 0.0;
};

/// Print the per-layer table for the timed ops named `op_name` and add
/// the per-layer metric set, identical in names and order on every
/// workload (a layer a workload never reaches reads 0; no time metric
/// is among those, so every time reported is measured).
void add_layer_metrics(Run& run, const std::string& op_name, const LayerInputs& inputs);

/// Median of `traced` over median of `untraced` (0 when either is empty).
[[nodiscard]] double overhead_ratio(const std::vector<double>& traced,
                                    const std::vector<double>& untraced);

}  // namespace e2e

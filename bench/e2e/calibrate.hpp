// The machine's current speed, measured with fixed pieces of the
// benchmark's own work.
//
// On a shared machine a virtual CPU's speed flips by half and more every
// few hundred milliseconds as neighbours come and go, and every op of a
// run slows or speeds up with it. References that never change between
// commits (they are not program code) are timed on the main thread between
// ops, and each op's time is divided by the slowdown of the samples taken
// just before and just after it, so an op is judged against the machine
// as it was while the op ran. A commit that makes the program faster moves
// the program's time, not the reference's.
//
// Not every kind of work slows alike when the machine is crowded, so each
// workload is reported against the reference shaped like its own work:
//
//  - compute: a CPU kernel (string sorting, passes over a vector larger
//    than a core's L2, heap traffic) for map-sampled and deploy-multizone.
//    Its working storage is allocated once, so it never calls the
//    allocator the program shares and the program's heap cannot move it.
//  - render: text rendering of full-precision doubles and FNV-1a hashing
//    on the calling thread, for monitord's cycles, set-up and query
//    exchanges, which fold forecasts and render and hash snapshots.
//    map-scale's set-up (three scenario builds and one 30 ms map) is
//    reported against it too.
//  - compute_and_render: both, timed as one, for map-scale's maps. When
//    the machine is crowded those slow more than the compute kernel and
//    less than the render.
//
// The references are timed on the calling thread's CPU clock.
//
// The nominal times are the references' medians on the baseline machine,
// so a value at reference speed reads in seconds of that machine.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace e2e {

enum class Reference { compute, render, compute_and_render };

class Calibration {
 public:
  explicit Calibration(Reference reference);

  /// Time the reference once.
  void sample();
  /// Record one op that took `wall_s`, then sample() when at least
  /// `spacing_s` has passed since the last sample (by default, after
  /// every op).
  void add_op(double wall_s, double spacing_s = 0.0);

  /// The ops' wall times, in the order they were added.
  [[nodiscard]] const std::vector<double>& walls() const { return walls_; }
  /// Each op's wall time at the reference's nominal speed: divided by the
  /// mean of the samples just before and just after it (the one there is,
  /// when the op has a sample on one side only) over the nominal time.
  [[nodiscard]] std::vector<double> at_reference() const;
  /// Median sample over the nominal time: how crowded the machine was.
  [[nodiscard]] double slowdown() const;

 private:
  double time_reference();
  [[nodiscard]] double nominal() const;
  double compute_kernel();

  Reference reference_;
  std::vector<double> walls_;
  /// Index into samples_ of the first sample taken after each op.
  std::vector<std::size_t> next_sample_;
  std::vector<double> samples_;
  Clock::time_point last_{};
  // compute kernel storage
  std::vector<std::array<char, 32>> keys_;
  std::vector<std::uint32_t> order_;
  std::vector<double> capacity_;
  std::vector<std::pair<double, int>> heap_;
};

}  // namespace e2e

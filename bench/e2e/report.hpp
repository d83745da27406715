// Results of one bench_e2e workload run: metrics, correctness checks,
// the human-readable report and the JSON records.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Run {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool traced = false;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The gated set named in BENCHMARK.json: the end-to-end metrics of an
  /// untraced run, the per-layer metrics of a traced one.
  std::vector<Metric> metrics;
  /// Everything else worth printing (per-size medians, tails with their
  /// sample counts, ...); kept in the --json record, never gated.
  std::vector<Metric> details;
  std::vector<std::string> check_failures;

  /// Record a correctness check; a failed one makes the run incorrect.
  void check(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const { return check_failures.empty(); }
  void metric(std::string name, double value, std::string unit);
  void detail(std::string name, double value, std::string unit);
};

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
/// Least-squares slope of log(y) against log(x).
[[nodiscard]] double loglog_slope(const std::vector<double>& xs, const std::vector<double>& ys);
/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

/// Metrics, details and failed checks as aligned text.
void print_report(const Run& run);
/// The one-line result the benchmark ends with:
/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
[[nodiscard]] std::string result_line(const Run& run);
/// The --json record: the result plus workload, seed, machine and details.
[[nodiscard]] std::string json_record(const Run& run);

}  // namespace e2e

// Small descriptive-statistics toolbox shared by the NWS forecasters,
// the ENV threshold logic, and the benchmark reports.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace envnws::stats {

[[nodiscard]] double sum(std::span<const double> xs);
[[nodiscard]] double mean(std::span<const double> xs);
/// Sample variance (divides by n-1); 0 for fewer than two samples.
[[nodiscard]] double variance(std::span<const double> xs);
[[nodiscard]] double stddev(std::span<const double> xs);
[[nodiscard]] double min(std::span<const double> xs);
[[nodiscard]] double max(std::span<const double> xs);
/// Median (average of the middle two for even sizes). 0 for empty input.
[[nodiscard]] double median(std::span<const double> xs);
/// median() of input already in ascending order, without the sorted copy.
[[nodiscard]] double median_sorted(std::span<const double> sorted);
/// Linear-interpolated percentile, p in [0, 100].
[[nodiscard]] double percentile(std::span<const double> xs, double p);
/// Mean of the values that survive trimming `trim_fraction` from each end.
[[nodiscard]] double trimmed_mean(std::span<const double> xs, double trim_fraction);
/// trimmed_mean() of input already in ascending order, without the sorted copy.
[[nodiscard]] double trimmed_mean_sorted(std::span<const double> sorted, double trim_fraction);
/// Mean absolute error between pairwise-aligned sequences.
[[nodiscard]] double mean_absolute_error(std::span<const double> predicted,
                                         std::span<const double> actual);
/// Root mean squared error between pairwise-aligned sequences.
[[nodiscard]] double rmse(std::span<const double> predicted, std::span<const double> actual);

/// Streaming mean/variance accumulator (Welford).
class Accumulator {
 public:
  void add(double x);
  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace envnws::stats

// Small descriptive-statistics toolbox shared by the NWS forecasters,
// the ENV threshold logic, and the benchmark reports.
#pragma once

#include <span>

namespace envnws::stats {

[[nodiscard]] double mean(std::span<const double> xs);
[[nodiscard]] double min(std::span<const double> xs);
/// Median (average of the middle two for even sizes). 0 for empty input.
[[nodiscard]] double median(std::span<const double> xs);
/// median() of input already in ascending order, without the sorted copy.
[[nodiscard]] double median_sorted(std::span<const double> sorted);
/// Mean of the values that survive trimming `trim_fraction` from each end.
[[nodiscard]] double trimmed_mean(std::span<const double> xs, double trim_fraction);
/// trimmed_mean() of input already in ascending order, without the sorted copy.
[[nodiscard]] double trimmed_mean_sorted(std::span<const double> sorted, double trim_fraction);

}  // namespace envnws::stats

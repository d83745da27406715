#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace envnws::stats {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double total = 0.0;
  for (double x : xs) total += x;
  return total / static_cast<double>(xs.size());
}

double min(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double median(std::span<const double> xs) {
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  return median_sorted(copy);
}

double median_sorted(std::span<const double> sorted) {
  if (sorted.empty()) return 0.0;
  const std::size_t n = sorted.size();
  if (n % 2 == 1) return sorted[n / 2];
  return 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

double trimmed_mean(std::span<const double> xs, double trim_fraction) {
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  return trimmed_mean_sorted(copy, trim_fraction);
}

double trimmed_mean_sorted(std::span<const double> sorted, double trim_fraction) {
  if (sorted.empty()) return 0.0;
  trim_fraction = std::clamp(trim_fraction, 0.0, 0.49);
  const auto cut = static_cast<std::size_t>(
      std::floor(trim_fraction * static_cast<double>(sorted.size())));
  if (sorted.size() <= 2 * cut) return median_sorted(sorted);
  double acc = 0.0;
  for (std::size_t i = cut; i < sorted.size() - cut; ++i) acc += sorted[i];
  return acc / static_cast<double>(sorted.size() - 2 * cut);
}

}  // namespace envnws::stats

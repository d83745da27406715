#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace envnws::stats {

double sum(std::span<const double> xs) {
  double total = 0.0;
  for (double x : xs) total += x;
  return total;
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return sum(xs) / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double min(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
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

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(copy.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return copy[lo] + (copy[hi] - copy[lo]) * frac;
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

double mean_absolute_error(std::span<const double> predicted, std::span<const double> actual) {
  const std::size_t n = std::min(predicted.size(), actual.size());
  if (n == 0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += std::abs(predicted[i] - actual[i]);
  return acc / static_cast<double>(n);
}

double rmse(std::span<const double> predicted, std::span<const double> actual) {
  const std::size_t n = std::min(predicted.size(), actual.size());
  if (n == 0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = predicted[i] - actual[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(n));
}

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

}  // namespace envnws::stats

#include "nws/forecast.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>

#include "common/stats.hpp"

namespace envnws::nws {

namespace {

/// Battery members, in the order forecast() breaks ties and
/// predictor_errors() reports them.
enum Member : std::size_t {
  kLast,
  kMean,
  kMeanW5,
  kMeanW21,
  kMeanW51,
  kMedianW5,
  kMedianW21,
  kMedianW51,
  kTrimmedW31,
  kExpSmooth005,
  kExpSmooth020,
  kExpSmooth050,
  kExpSmooth090,
  kAdaptSmooth,
  kMomentum,
};

constexpr std::array<const char*, 15> kNames = {
    "last",
    "mean",
    "mean_w5",         "mean_w21",        "mean_w51",
    "median_w5",       "median_w21",      "median_w51",
    "trimmed_w31",
    "expsmooth_g0.05", "expsmooth_g0.20", "expsmooth_g0.50", "expsmooth_g0.90",
    "adaptsmooth",
    "momentum"};
constexpr std::array<std::size_t, 3> kWindows = {5, 21, 51};  ///< sliding means and medians
constexpr std::size_t kTrimmedWindow = 31;
constexpr double kTrimFraction = 0.1;
constexpr std::array<double, 4> kGains = {0.05, 0.2, 0.5, 0.9};

}  // namespace

double AdaptiveForecaster::predict(std::size_t member) const {
  switch (member) {
    case kLast:
      return last_;
    case kMean:
      return count_ > 0 ? running_sum_ / static_cast<double>(count_) : 0.0;
    case kMeanW5:
    case kMeanW21:
    case kMeanW51: {
      const std::size_t held = std::min(count_, kWindows[member - kMeanW5]);
      return held == 0 ? 0.0 : window_sums_[member - kMeanW5] / static_cast<double>(held);
    }
    case kMedianW5:
    case kMedianW21:
    case kMedianW51:
    case kTrimmedW31: {
      const bool trimmed = member == kTrimmedW31;
      const std::size_t held =
          std::min(count_, trimmed ? kTrimmedWindow : kWindows[member - kMedianW5]);
      // The last `held` observations, sorted in place on the stack.
      std::array<double, kHistory> window{};
      for (std::size_t i = 0; i < held; ++i) {
        window[i] = history_[(count_ - held + i) % kHistory];
      }
      const auto recent = std::span<double>(window.data(), held);
      std::sort(recent.begin(), recent.end());
      return trimmed ? stats::trimmed_mean_sorted(recent, kTrimFraction)
                     : stats::median_sorted(recent);
    }
    case kExpSmooth005:
    case kExpSmooth020:
    case kExpSmooth050:
    case kExpSmooth090:
      return smoothed_[member - kExpSmooth005];
    case kAdaptSmooth:
      return adaptive_state_;
    default:  // kMomentum
      return last_ + (last_ - previous_);
  }
}

void AdaptiveForecaster::update(double value) {
  static_assert(kWindows.back() == kHistory && kTrimmedWindow <= kHistory);
  const bool primed = count_ > 0;
  // Slide each mean's window: add the new value, then subtract the one
  // leaving, read before the ring slot is overwritten.
  for (std::size_t i = 0; i < kWindows.size(); ++i) {
    window_sums_[i] += value;
    if (count_ >= kWindows[i]) window_sums_[i] -= history_[(count_ - kWindows[i]) % kHistory];
  }
  history_[count_ % kHistory] = value;
  running_sum_ += value;
  for (std::size_t i = 0; i < kGains.size(); ++i) {
    smoothed_[i] = primed ? kGains[i] * value + (1.0 - kGains[i]) * smoothed_[i] : value;
  }
  // Adaptive smoothing: same-sign consecutive errors mean the smoother is
  // lagging, so its gain grows (track faster); otherwise it shrinks
  // (smooth harder).
  if (!primed) {
    adaptive_state_ = value;
  } else {
    const double error = value - adaptive_state_;
    adaptive_gain_ = error * adaptive_last_error_ > 0.0 ? std::min(0.95, adaptive_gain_ * 1.1)
                                                        : std::max(0.05, adaptive_gain_ * 0.9);
    adaptive_last_error_ = error;
    adaptive_state_ += adaptive_gain_ * error;
  }
  previous_ = primed ? last_ : value;
  last_ = value;
}

void AdaptiveForecaster::observe(double value) {
  if (count_ > 0) {
    for (std::size_t member = 0; member < kPredictors; ++member) {
      const double error = predict(member) - value;
      sum_abs_error_[member] += std::abs(error);
      sum_sq_error_[member] += error * error;
    }
  }
  update(value);
  ++count_;
}

Forecast AdaptiveForecaster::forecast() const {
  std::size_t best = 0;
  for (std::size_t member = 1; member < kPredictors; ++member) {
    if (sum_sq_error_[member] < sum_sq_error_[best]) best = member;
  }
  const double denom = count_ > 1 ? static_cast<double>(count_ - 1) : 1.0;
  Forecast out;
  out.value = predict(best);
  out.winner = kNames[best];
  out.mae = sum_abs_error_[best] / denom;
  out.rmse = std::sqrt(sum_sq_error_[best] / denom);
  out.samples = count_;
  return out;
}

std::vector<std::pair<std::string, double>> AdaptiveForecaster::predictor_errors() const {
  static_assert(kNames.size() == kPredictors);
  std::vector<std::pair<std::string, double>> out;
  const double denom = count_ > 1 ? static_cast<double>(count_ - 1) : 1.0;
  for (std::size_t member = 0; member < kPredictors; ++member) {
    out.emplace_back(kNames[member], sum_abs_error_[member] / denom);
  }
  return out;
}

}  // namespace envnws::nws

// Bit-identity of the fixed forecasting battery against an oracle: the
// earlier class-based battery (one heap object and one private window per
// predictor), kept here verbatim in behaviour. Every forecast value,
// error estimate and winner name reaches monitord's snapshot digests, the
// golden example outputs and QUERY/SERIES replies, so the two must agree
// bit for bit after every observation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "nws/forecast.hpp"

namespace envnws::nws {
namespace {

namespace oracle {

class Predictor {
 public:
  virtual ~Predictor() = default;
  [[nodiscard]] virtual const std::string& name() const = 0;
  [[nodiscard]] virtual double predict() const = 0;
  virtual void update(double value) = 0;
};

class LastValue final : public Predictor {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] double predict() const override { return last_; }
  void update(double value) override { last_ = value; }

 private:
  std::string name_ = "last";
  double last_ = 0.0;
};

class RunningMean final : public Predictor {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] double predict() const override { return count_ > 0 ? sum_ / count_ : 0.0; }
  void update(double value) override {
    sum_ += value;
    count_ += 1.0;
  }

 private:
  std::string name_ = "mean";
  double sum_ = 0.0;
  double count_ = 0.0;
};

class SlidingMean final : public Predictor {
 public:
  explicit SlidingMean(std::size_t window)
      : name_("mean_w" + std::to_string(window)), window_(window) {}
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] double predict() const override {
    return values_.empty() ? 0.0 : sum_ / static_cast<double>(values_.size());
  }
  void update(double value) override {
    values_.push_back(value);
    sum_ += value;
    if (values_.size() > window_) {
      sum_ -= values_.front();
      values_.pop_front();
    }
  }

 private:
  std::string name_;
  std::size_t window_;
  std::deque<double> values_;
  double sum_ = 0.0;
};

class SlidingMedian final : public Predictor {
 public:
  explicit SlidingMedian(std::size_t window)
      : name_("median_w" + std::to_string(window)), window_(window) {}
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] double predict() const override {
    if (values_.empty()) return 0.0;
    std::vector<double> copy(values_.begin(), values_.end());
    return stats::median(copy);
  }
  void update(double value) override {
    values_.push_back(value);
    if (values_.size() > window_) values_.pop_front();
  }

 private:
  std::string name_;
  std::size_t window_;
  std::deque<double> values_;
};

class TrimmedMean final : public Predictor {
 public:
  TrimmedMean(std::size_t window, double trim_fraction)
      : name_("trimmed_w" + std::to_string(window)),
        window_(window),
        trim_fraction_(trim_fraction) {}
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] double predict() const override {
    if (values_.empty()) return 0.0;
    std::vector<double> copy(values_.begin(), values_.end());
    return stats::trimmed_mean(copy, trim_fraction_);
  }
  void update(double value) override {
    values_.push_back(value);
    if (values_.size() > window_) values_.pop_front();
  }

 private:
  std::string name_;
  std::size_t window_;
  double trim_fraction_;
  std::deque<double> values_;
};

class ExponentialSmoothing final : public Predictor {
 public:
  explicit ExponentialSmoothing(double gain)
      : name_("expsmooth_g" + std::to_string(gain).substr(0, 4)), gain_(gain) {}
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] double predict() const override { return state_; }
  void update(double value) override {
    if (!primed_) {
      state_ = value;
      primed_ = true;
      return;
    }
    state_ = gain_ * value + (1.0 - gain_) * state_;
  }

 private:
  std::string name_;
  double gain_;
  double state_ = 0.0;
  bool primed_ = false;
};

class AdaptiveSmoothing final : public Predictor {
 public:
  explicit AdaptiveSmoothing(double initial_gain)
      : name_("adaptsmooth"), gain_(initial_gain) {}
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] double predict() const override { return state_; }
  void update(double value) override {
    if (!primed_) {
      state_ = value;
      primed_ = true;
      return;
    }
    const double error = value - state_;
    if (error * last_error_ > 0.0) {
      gain_ = std::min(0.95, gain_ * 1.1);
    } else {
      gain_ = std::max(0.05, gain_ * 0.9);
    }
    last_error_ = error;
    state_ += gain_ * error;
  }

 private:
  std::string name_;
  double gain_;
  double state_ = 0.0;
  double last_error_ = 0.0;
  bool primed_ = false;
};

class Momentum final : public Predictor {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] double predict() const override { return last_ + (last_ - previous_); }
  void update(double value) override {
    previous_ = primed_ ? last_ : value;
    last_ = value;
    primed_ = true;
  }

 private:
  std::string name_ = "momentum";
  double last_ = 0.0;
  double previous_ = 0.0;
  bool primed_ = false;
};

class Forecaster {
 public:
  Forecaster() {
    add(std::make_unique<LastValue>());
    add(std::make_unique<RunningMean>());
    for (const std::size_t window : {5, 21, 51}) add(std::make_unique<SlidingMean>(window));
    for (const std::size_t window : {5, 21, 51}) add(std::make_unique<SlidingMedian>(window));
    add(std::make_unique<TrimmedMean>(31, 0.1));
    for (const double gain : {0.05, 0.2, 0.5, 0.9}) {
      add(std::make_unique<ExponentialSmoothing>(gain));
    }
    add(std::make_unique<AdaptiveSmoothing>(0.3));
    add(std::make_unique<Momentum>());
  }

  void observe(double value) {
    for (auto& tracked : battery_) {
      if (count_ > 0) {
        const double error = tracked.predictor->predict() - value;
        tracked.sum_abs_error += std::abs(error);
        tracked.sum_sq_error += error * error;
      }
      tracked.predictor->update(value);
    }
    ++count_;
  }

  [[nodiscard]] Forecast forecast() const {
    Forecast out;
    out.samples = count_;
    const Tracked* best = &battery_.front();
    for (const auto& tracked : battery_) {
      if (tracked.sum_sq_error < best->sum_sq_error) best = &tracked;
    }
    out.value = best->predictor->predict();
    out.winner = best->predictor->name();
    const double denom = count_ > 1 ? static_cast<double>(count_ - 1) : 1.0;
    out.mae = best->sum_abs_error / denom;
    out.rmse = std::sqrt(best->sum_sq_error / denom);
    return out;
  }

  [[nodiscard]] std::vector<std::pair<std::string, double>> predictor_errors() const {
    std::vector<std::pair<std::string, double>> out;
    const double denom = count_ > 1 ? static_cast<double>(count_ - 1) : 1.0;
    for (const auto& tracked : battery_) {
      out.emplace_back(tracked.predictor->name(), tracked.sum_abs_error / denom);
    }
    return out;
  }

 private:
  struct Tracked {
    std::unique_ptr<Predictor> predictor;
    double sum_abs_error = 0.0;
    double sum_sq_error = 0.0;
  };
  void add(std::unique_ptr<Predictor> predictor) {
    battery_.push_back(Tracked{std::move(predictor), 0.0, 0.0});
  }
  std::vector<Tracked> battery_;
  std::size_t count_ = 0;
};

}  // namespace oracle

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// A seeded series of `length` values built from segments of every shape
/// the battery must agree on: constants, ramps, steps, noise, outlier
/// bursts, and long runs that make every window evict many times.
std::vector<double> mixed_series(std::uint64_t seed, std::size_t length) {
  Rng rng(seed);
  std::vector<double> out;
  double level = rng.uniform(-50.0, 150.0);
  while (out.size() < length) {
    const int shape = static_cast<int>(rng.uniform(0.0, 6.0));
    const bool long_run = rng.next_double() < 0.2;
    const auto run = static_cast<std::size_t>(long_run ? rng.uniform(150.0, 400.0)
                                                       : rng.uniform(1.0, 60.0));
    const double slope = rng.uniform(-3.0, 3.0);
    const double sigma = rng.uniform(0.01, 20.0);
    for (std::size_t i = 0; i < run && out.size() < length; ++i) {
      switch (shape) {
        case 0: out.push_back(level); break;                         // constant
        case 1: out.push_back(level += slope); break;                // ramp
        case 2: out.push_back(level = rng.uniform(-1e3, 1e3)); break;  // steps of one
        case 3: out.push_back(level + rng.normal(0.0, sigma)); break;  // noise
        case 4:                                                        // outliers
          out.push_back(rng.next_double() < 0.1 ? level * rng.uniform(-40.0, 40.0) : level);
          break;
        default: out.push_back(level + sigma * std::sin(static_cast<double>(i) / 7.0)); break;
      }
    }
    if (shape == 0 || shape == 3) level += rng.uniform(-100.0, 100.0);  // a step between runs
  }
  return out;
}

void expect_same(const AdaptiveForecaster& battery, const oracle::Forecaster& reference,
                 std::size_t step) {
  const Forecast got = battery.forecast();
  const Forecast want = reference.forecast();
  ASSERT_EQ(bits(got.value), bits(want.value)) << "step " << step;
  ASSERT_EQ(bits(got.mae), bits(want.mae)) << "step " << step;
  ASSERT_EQ(bits(got.rmse), bits(want.rmse)) << "step " << step;
  ASSERT_EQ(got.winner, want.winner) << "step " << step;
  ASSERT_EQ(got.samples, want.samples) << "step " << step;
  const auto got_errors = battery.predictor_errors();
  const auto want_errors = reference.predictor_errors();
  ASSERT_EQ(got_errors.size(), want_errors.size());
  for (std::size_t i = 0; i < got_errors.size(); ++i) {
    ASSERT_EQ(got_errors[i].first, want_errors[i].first) << "step " << step;
    ASSERT_EQ(bits(got_errors[i].second), bits(want_errors[i].second))
        << "step " << step << ", " << got_errors[i].first;
  }
}

TEST(ForecastOracle, EveryStepMatchesTheClassBasedBatteryBitForBit) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<double> series = mixed_series(seed, 2500);
    AdaptiveForecaster battery;
    oracle::Forecaster reference;
    expect_same(battery, reference, 0);
    for (std::size_t i = 0; i < series.size(); ++i) {
      battery.observe(series[i]);
      reference.observe(series[i]);
      expect_same(battery, reference, i + 1);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace envnws::nws

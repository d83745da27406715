// The NWS statistical forecasting battery.
//
// The NWS forecaster (paper §2.1; Wolski et al., FGCS 15(5-6)) runs a
// fixed family of cheap predictors over each measurement series in
// parallel, tracks every predictor's cumulative error, and answers each
// query with the prediction of the currently most accurate one ("dynamic
// predictor selection"). This module reproduces that design. The battery
// is fixed: last value, running mean, sliding means (windows 5/21/51),
// sliding medians (5/21/51), a 10%-trimmed mean (31), exponential
// smoothing (gains 0.05/0.20/0.50/0.90), adaptive smoothing and momentum.
// The windowed predictors share one history, an inline ring of the last
// 51 observations; the sliding means keep running sums, while the medians
// and the trimmed mean sort their window on each prediction. A
// forecaster allocates nothing on construction.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace envnws::nws {

struct Forecast {
  double value = 0.0;
  /// Error estimate: the winner's mean absolute error so far.
  double mae = 0.0;
  /// Root-mean-square error of the winner.
  double rmse = 0.0;
  std::string winner;
  std::size_t samples = 0;
};

class AdaptiveForecaster {
 public:
  /// Feed the next observed value (updates every predictor's error).
  void observe(double value);
  /// Forecast the next value using the minimum-MSE predictor so far.
  [[nodiscard]] Forecast forecast() const;
  /// Cumulative mean absolute error of each predictor (for the bench).
  [[nodiscard]] std::vector<std::pair<std::string, double>> predictor_errors() const;
  [[nodiscard]] std::size_t observations() const { return count_; }

 private:
  static constexpr std::size_t kPredictors = 15;
  /// The longest window in the battery: the history ring's capacity.
  static constexpr std::size_t kHistory = 51;

  /// Battery member `member`'s prediction for the next value.
  [[nodiscard]] double predict(std::size_t member) const;
  /// Feed `value` to every predictor's state.
  void update(double value);

  std::array<double, kHistory> history_{};  ///< ring; the next write goes to count_ % kHistory
  std::array<double, 3> window_sums_{};     ///< mean_w5, mean_w21, mean_w51
  double last_ = 0.0;
  double previous_ = 0.0;  ///< momentum's second-to-last value
  double running_sum_ = 0.0;
  std::array<double, 4> smoothed_{};  ///< expsmooth_g0.05 .. expsmooth_g0.90
  double adaptive_state_ = 0.0;
  double adaptive_gain_ = 0.3;
  double adaptive_last_error_ = 0.0;
  std::array<double, kPredictors> sum_abs_error_{};
  std::array<double, kPredictors> sum_sq_error_{};
  std::size_t count_ = 0;
};

}  // namespace envnws::nws

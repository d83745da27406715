#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "common/rng.hpp"
#include "nws/forecast.hpp"
#include "nws/series.hpp"

namespace envnws::nws {
namespace {

TEST(Series, RingBufferDropsOldest) {
  TimeSeries series(3);
  for (int i = 0; i < 5; ++i) series.add(i, i * 10.0);
  EXPECT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series.at(0).value, 20.0);
  EXPECT_DOUBLE_EQ(series.latest().value, 40.0);
}

TEST(Series, MeanPeriod) {
  TimeSeries series;
  series.add(0.0, 1.0);
  series.add(10.0, 1.0);
  series.add(20.0, 1.0);
  EXPECT_DOUBLE_EQ(series.mean_period(), 10.0);
  TimeSeries single;
  single.add(5.0, 1.0);
  EXPECT_DOUBLE_EQ(single.mean_period(), 0.0);
}

TEST(Series, KeyOrderingAndNames) {
  const SeriesKey a{ResourceKind::bandwidth, "a", "b"};
  const SeriesKey b{ResourceKind::latency, "a", "b"};
  const SeriesKey c{ResourceKind::bandwidth, "a", "c"};
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);
  EXPECT_EQ(a, (SeriesKey{ResourceKind::bandwidth, "a", "b"}));
  EXPECT_EQ(a.to_string(), "bandwidth:a->b");
  EXPECT_EQ((SeriesKey{ResourceKind::cpu, "h", ""}).to_string(), "availableCpu:h");
  EXPECT_TRUE(is_network_resource(ResourceKind::connect_time));
  EXPECT_FALSE(is_network_resource(ResourceKind::cpu));
}

TEST(Forecast, LastValuePredictsLast) {
  auto predictor = make_last_value();
  predictor->update(5.0);
  predictor->update(7.0);
  EXPECT_DOUBLE_EQ(predictor->predict(), 7.0);
}

TEST(Forecast, RunningMean) {
  auto predictor = make_running_mean();
  for (double v : {2.0, 4.0, 6.0}) predictor->update(v);
  EXPECT_DOUBLE_EQ(predictor->predict(), 4.0);
}

TEST(Forecast, SlidingMeanWindow) {
  auto predictor = make_sliding_mean(2);
  for (double v : {100.0, 2.0, 4.0}) predictor->update(v);
  EXPECT_DOUBLE_EQ(predictor->predict(), 3.0);  // window holds {2, 4}
}

TEST(Forecast, SlidingMedianResistsOutliers) {
  auto predictor = make_sliding_median(5);
  for (double v : {10.0, 10.0, 1000.0, 10.0, 10.0}) predictor->update(v);
  EXPECT_DOUBLE_EQ(predictor->predict(), 10.0);
}

TEST(Forecast, TrimmedMeanResistsOutliers) {
  auto predictor = make_trimmed_mean(10, 0.2);
  for (double v : {10.0, 10.0, 10.0, 10.0, 500.0}) predictor->update(v);
  EXPECT_NEAR(predictor->predict(), 10.0, 1.0);
}

TEST(Forecast, ExponentialSmoothingTracks) {
  auto predictor = make_exponential_smoothing(0.5);
  predictor->update(0.0);
  predictor->update(10.0);
  EXPECT_DOUBLE_EQ(predictor->predict(), 5.0);
  predictor->update(10.0);
  EXPECT_DOUBLE_EQ(predictor->predict(), 7.5);
}

TEST(Forecast, MomentumExtrapolatesTrend) {
  auto predictor = make_momentum();
  predictor->update(10.0);
  predictor->update(12.0);
  EXPECT_DOUBLE_EQ(predictor->predict(), 14.0);
}

TEST(Forecast, AdaptiveSmoothingConverges) {
  auto predictor = make_adaptive_smoothing(0.3);
  for (int i = 0; i < 200; ++i) predictor->update(42.0);
  EXPECT_NEAR(predictor->predict(), 42.0, 0.5);
}

TEST(Forecast, AdaptiveForecasterPerfectOnConstantSeries) {
  AdaptiveForecaster forecaster;
  for (int i = 0; i < 50; ++i) forecaster.observe(10.0);
  const Forecast forecast = forecaster.forecast();
  EXPECT_NEAR(forecast.value, 10.0, 1e-9);
  EXPECT_NEAR(forecast.mae, 0.0, 1e-9);
  EXPECT_EQ(forecast.samples, 50u);
}

TEST(Forecast, AdaptiveForecasterPicksTrendFollowerOnRamp) {
  AdaptiveForecaster forecaster;
  for (int i = 0; i < 100; ++i) forecaster.observe(static_cast<double>(i));
  const Forecast forecast = forecaster.forecast();
  // Momentum predicts i+1 exactly on a linear ramp.
  EXPECT_EQ(forecast.winner, "momentum");
  EXPECT_NEAR(forecast.value, 100.0, 1e-9);
}

TEST(Forecast, AdaptiveForecasterPrefersSmoothingOnNoise) {
  Rng rng(5);
  AdaptiveForecaster forecaster;
  for (int i = 0; i < 500; ++i) forecaster.observe(50.0 + rng.normal(0.0, 5.0));
  const Forecast forecast = forecaster.forecast();
  // On white noise around a constant, an averaging predictor must beat
  // last-value; its error estimate should be near the noise sigma.
  EXPECT_NE(forecast.winner, "last");
  EXPECT_NE(forecast.winner, "momentum");
  EXPECT_NEAR(forecast.value, 50.0, 2.0);
  EXPECT_LT(forecast.rmse, 7.0);
}

TEST(Forecast, AdaptiveBeatsOrMatchesEveryPredictorItTracks) {
  Rng rng(11);
  AdaptiveForecaster forecaster;
  // Regime switch: constant, then ramp, then noisy constant.
  std::vector<double> trace;
  for (int i = 0; i < 100; ++i) trace.push_back(20.0);
  for (int i = 0; i < 100; ++i) trace.push_back(20.0 + i * 0.5);
  for (int i = 0; i < 100; ++i) trace.push_back(70.0 + rng.normal(0.0, 2.0));
  for (double v : trace) forecaster.observe(v);
  const auto errors = forecaster.predictor_errors();
  double best = 1e18;
  for (const auto& [name, mae] : errors) best = std::min(best, mae);
  // The selector's winner is the argmin-MSE predictor; its MAE should be
  // close to the best MAE in the battery (not identical: MSE vs MAE).
  EXPECT_LE(forecaster.forecast().mae, best * 1.5 + 1e-9);
}

TEST(Forecast, EmptyForecasterIsSane) {
  AdaptiveForecaster forecaster;
  const Forecast forecast = forecaster.forecast();
  EXPECT_EQ(forecast.samples, 0u);
  EXPECT_DOUBLE_EQ(forecast.value, 0.0);
}

// --- parameterized: winner matches trace family ---------------------------

struct TraceCase {
  const char* name;
  int kind;  // 0 constant, 1 ramp, 2 noisy, 3 periodic
};

// Prints a case by its name. Without it gtest dumps the struct's raw bytes,
// which hold the name pointer, so the listed test names (and the ctest names
// discovered from them) changed with every run under ASLR.
void PrintTo(const TraceCase& trace_case, std::ostream* os) { *os << trace_case.name; }

class ForecastFamilies : public ::testing::TestWithParam<TraceCase> {};

TEST_P(ForecastFamilies, ErrorStaysBounded) {
  Rng rng(7);
  AdaptiveForecaster forecaster;
  std::vector<double> values;
  for (int i = 0; i < 400; ++i) {
    double v = 0.0;
    switch (GetParam().kind) {
      case 0: v = 10.0; break;
      case 1: v = 0.1 * i; break;
      case 2: v = 30.0 + rng.normal(0.0, 3.0); break;
      case 3: v = 50.0 + 10.0 * std::sin(i / 10.0); break;
      default: break;
    }
    values.push_back(v);
    forecaster.observe(v);
  }
  const Forecast forecast = forecaster.forecast();
  // The winner's RMSE must be well under the trace's own standard
  // deviation (i.e. forecasting beats guessing the mean).
  double mean = 0.0;
  for (double v : values) mean += v;
  mean /= static_cast<double>(values.size());
  double var = 0.0;
  for (double v : values) var += (v - mean) * (v - mean);
  const double sigma = std::sqrt(var / static_cast<double>(values.size()));
  EXPECT_LT(forecast.rmse, std::max(0.5 * sigma, 4.0)) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(Families, ForecastFamilies,
                         ::testing::Values(TraceCase{"constant", 0}, TraceCase{"ramp", 1},
                                           TraceCase{"noisy", 2}, TraceCase{"periodic", 3}),
                         [](const ::testing::TestParamInfo<TraceCase>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace envnws::nws

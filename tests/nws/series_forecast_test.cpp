#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

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
}

/// Battery member `name`'s prediction for the next value, read back
/// through predictor_errors(): observing a probe above every prediction
/// adds exactly (probe - prediction) to the member's summed absolute error.
double prediction_of(AdaptiveForecaster forecaster, const std::string& name) {
  const auto summed_error = [&name](const AdaptiveForecaster& f) {
    const double denom =
        f.observations() > 1 ? static_cast<double>(f.observations() - 1) : 1.0;
    for (const auto& [member, mae] : f.predictor_errors()) {
      if (member == name) return mae * denom;
    }
    ADD_FAILURE() << "no battery member " << name;
    return 0.0;
  };
  constexpr double kProbe = 1e4;
  const double before = summed_error(forecaster);
  forecaster.observe(kProbe);
  return kProbe - (summed_error(forecaster) - before);
}

AdaptiveForecaster fed(std::initializer_list<double> values) {
  AdaptiveForecaster forecaster;
  for (const double v : values) forecaster.observe(v);
  return forecaster;
}

TEST(Forecast, LastValuePredictsLast) {
  EXPECT_NEAR(prediction_of(fed({5.0, 7.0}), "last"), 7.0, 1e-9);
}

TEST(Forecast, RunningMean) {
  EXPECT_NEAR(prediction_of(fed({2.0, 4.0, 6.0}), "mean"), 4.0, 1e-9);
}

TEST(Forecast, SlidingMeanWindow) {
  // mean_w5 holds {2, 4, 6, 8, 10}; the 100 has left the window.
  EXPECT_NEAR(prediction_of(fed({100.0, 2.0, 4.0, 6.0, 8.0, 10.0}), "mean_w5"), 6.0, 1e-9);
  // Before the window fills it averages what it holds.
  EXPECT_NEAR(prediction_of(fed({100.0, 2.0}), "mean_w21"), 51.0, 1e-9);
}

TEST(Forecast, SlidingMedianResistsOutliers) {
  const AdaptiveForecaster forecaster = fed({10.0, 10.0, 1000.0, 10.0, 10.0});
  EXPECT_NEAR(prediction_of(forecaster, "median_w5"), 10.0, 1e-9);
  // The window slides: three 20s push out 10, 10 and the 1000.
  EXPECT_NEAR(prediction_of(fed({10.0, 10.0, 1000.0, 10.0, 10.0, 20.0, 20.0, 20.0}), "median_w5"),
              20.0, 1e-9);
}

TEST(Forecast, TrimmedMeanResistsOutliers) {
  // Ten values trim one from each end: the 500 and one 10 go.
  const AdaptiveForecaster forecaster =
      fed({10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 500.0});
  EXPECT_NEAR(prediction_of(forecaster, "trimmed_w31"), 10.0, 1e-9);
}

TEST(Forecast, ExponentialSmoothingTracks) {
  EXPECT_NEAR(prediction_of(fed({0.0, 10.0}), "expsmooth_g0.50"), 5.0, 1e-9);
  EXPECT_NEAR(prediction_of(fed({0.0, 10.0, 10.0}), "expsmooth_g0.50"), 7.5, 1e-9);
  EXPECT_NEAR(prediction_of(fed({0.0, 10.0}), "expsmooth_g0.90"), 9.0, 1e-9);
}

TEST(Forecast, MomentumExtrapolatesTrend) {
  EXPECT_NEAR(prediction_of(fed({10.0, 12.0}), "momentum"), 14.0, 1e-9);
}

TEST(Forecast, AdaptiveSmoothingConverges) {
  AdaptiveForecaster forecaster;
  for (int i = 0; i < 200; ++i) forecaster.observe(42.0);
  EXPECT_NEAR(prediction_of(forecaster, "adaptsmooth"), 42.0, 0.5);
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

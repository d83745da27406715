#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#ifndef ENVNWS_E2E_BUILD_TYPE
#define ENVNWS_E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {

void Run::check(bool ok, const std::string& what) {
  if (!ok) check_failures.push_back(what);
}

void Run::metric(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Run::detail(std::string name, double value, std::string unit) {
  details.push_back(Metric{std::move(name), value, std::move(unit)});
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + fraction * (values[above] - values[below]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double loglog_slope(const std::vector<double>& xs, const std::vector<double>& ys) {
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return 0.0;
  double sum_x = 0.0, sum_y = 0.0, sum_xx = 0.0, sum_xy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = std::log(xs[i]);
    const double y = std::log(ys[i]);
    sum_x += x;
    sum_y += y;
    sum_xx += x * x;
    sum_xy += x * y;
  }
  const double count = static_cast<double>(n);
  const double denominator = count * sum_xx - sum_x * sum_x;
  return denominator == 0.0 ? 0.0 : (count * sum_xy - sum_x * sum_y) / denominator;
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

namespace {

/// Full-precision JSON number (non-finite values have no JSON form).
std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char text[40];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

std::string metrics_object(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::printf("%s\n", title);
  for (const Metric& metric : metrics) {
    std::printf("  %-40s %18.9g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
}

}  // namespace

void print_report(const Run& run) {
  std::printf("== %s, seed %llu, %.0f s, %s: %llu op(s) attempted, %llu failed\n",
              run.workload.c_str(), static_cast<unsigned long long>(run.seed), run.seconds,
              run.traced ? "traced" : "untraced", static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  print_metrics(run.traced ? "per-layer metrics:" : "end-to-end metrics:", run.metrics);
  print_metrics("details (not gated):", run.details);
  for (const std::string& failure : run.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
}

std::string result_line(const Run& run) {
  return std::string("{\"correct\": ") + (run.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(run.attempted) +
         ", \"failed\": " + std::to_string(run.failed) +
         ", \"metrics\": " + metrics_object(run.metrics) + "}";
}

std::string json_record(const Run& run) {
  return "{\"workload\": \"" + run.workload + "\", \"seed\": " + std::to_string(run.seed) +
         ", \"seconds\": " + number(run.seconds) +
         ", \"trace\": " + (run.traced ? "true" : "false") +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": \"" ENVNWS_E2E_BUILD_TYPE "\"" +
         ", \"correct\": " + (run.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(run.attempted) +
         ", \"failed\": " + std::to_string(run.failed) +
         ", \"metrics\": " + metrics_object(run.metrics) +
         ", \"details\": " + metrics_object(run.details) + "}";
}

}  // namespace e2e

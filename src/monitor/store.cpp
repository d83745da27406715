#include "monitor/store.hpp"

#include <algorithm>

namespace envnws::monitor {

SeriesStore::SeriesStore(std::size_t history, DriftPolicy policy)
    : policy_(policy), memory_("monitord", simnet::NodeId(0), std::max<std::size_t>(history, 1)) {}

SeriesStore::Recorded SeriesStore::record(const nws::SeriesKey& key, double time, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  Tracked& tracked = tracked_.try_emplace(key, policy_.window).first->second;
  Recorded recorded;
  if (tracked.forecaster.observations() > 0) {
    const nws::Forecast forecast = tracked.forecaster.forecast();
    recorded.had_forecast = true;
    recorded.predicted = forecast.value;
    tracked.drift.observe(forecast.value, value);
    recorded.relative_error = tracked.drift.relative_mae();
  }
  tracked.forecaster.observe(value);
  memory_.store(key, time, value);
  return recorded;
}

std::vector<PairReading> SeriesStore::collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<PairReading> out;
  out.reserve(memory_.series().size());
  for (const auto& [key, series] : memory_.series()) {
    PairReading reading;
    reading.key = key;
    reading.time = series.latest().time;
    reading.value = series.latest().value;
    const auto tracked = tracked_.find(key);
    if (tracked != tracked_.end()) {
      reading.forecast = tracked->second.forecaster.forecast();
      reading.drift_relative_mae = tracked->second.drift.relative_mae();
      reading.drifting = tracked->second.drift.drifting(policy_);
    }
    out.push_back(std::move(reading));
  }
  return out;
}

std::vector<nws::Measurement> SeriesStore::series(const nws::SeriesKey& key,
                                                  std::size_t max) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const nws::TimeSeries* found = memory_.find(key);
  if (found == nullptr || found->empty()) return {};
  const std::size_t want = std::min(max == 0 ? found->size() : max, found->size());
  std::vector<nws::Measurement> out;
  out.reserve(want);
  for (std::size_t i = found->size() - want; i < found->size(); ++i) {
    out.push_back(found->at(i));
  }
  return out;
}

std::vector<nws::SeriesKey> SeriesStore::drifting() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<nws::SeriesKey> out;
  for (const auto& [key, tracked] : tracked_) {
    if (tracked.drift.drifting(policy_)) out.push_back(key);
  }
  return out;
}

void SeriesStore::reset_learning(const std::vector<nws::SeriesKey>& keys) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const nws::SeriesKey& key : keys) {
    const auto tracked = tracked_.find(key);
    if (tracked != tracked_.end()) tracked->second = Tracked(policy_.window);
  }
}

std::uint64_t SeriesStore::stored() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return memory_.stored_count();
}

std::string SeriesStore::dump() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return memory_.dump();
}

Status SeriesStore::restore(const std::string& text) {
  return nws::parse_dump(text, [this](const nws::SeriesKey& key, double time, double value) {
    record(key, time, value);
  });
}

}  // namespace envnws::monitor

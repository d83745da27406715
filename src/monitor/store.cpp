#include "monitor/store.hpp"

#include <algorithm>

#include "common/codec.hpp"

namespace envnws::monitor {

void append_pair_line(std::string& out, const PairReading& reading) {
  out += reading.key.to_string();
  out += " t=";
  codec::append_full(out, reading.time);
  out += " v=";
  codec::append_full(out, reading.value);
  out += " forecast=";
  codec::append_full(out, reading.forecast.value);
  out += " mae=";
  codec::append_full(out, reading.forecast.mae);
  out += " rmse=";
  codec::append_full(out, reading.forecast.rmse);
  out += " winner=";
  out += reading.forecast.winner;
  out += " samples=";
  out += std::to_string(reading.forecast.samples);
  out += " drift=";
  codec::append_full(out, reading.drift_relative_mae);
  if (reading.drifting) out += " DRIFTING";
  out += '\n';
}

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
    if (tracked.drift.drifting(policy_)) {
      drifting_.insert(key);
    } else {
      drifting_.erase(key);
    }
  }
  tracked.forecaster.observe(value);
  memory_.store(key, time, value);
  tracked.dirty = true;
  return recorded;
}

std::vector<PairReading> SeriesStore::collect(std::string* lines) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<PairReading> out;
  out.reserve(tracked_.size());
  if (lines != nullptr) lines->clear();
  for (auto& [key, tracked] : tracked_) {
    if (tracked.dirty) {
      const nws::Measurement& latest = memory_.find(key)->latest();
      PairReading& reading = tracked.reading;
      reading.key = key;
      reading.time = latest.time;
      reading.value = latest.value;
      reading.forecast = tracked.forecaster.forecast();
      reading.drift_relative_mae = tracked.drift.relative_mae();
      reading.drifting = tracked.drift.drifting(policy_);
      tracked.line.clear();
      append_pair_line(tracked.line, reading);
      tracked.dirty = false;
    }
    out.push_back(tracked.reading);
    if (lines != nullptr) *lines += tracked.line;
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
  return {drifting_.begin(), drifting_.end()};
}

void SeriesStore::reset_learning(const std::vector<nws::SeriesKey>& keys) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const nws::SeriesKey& key : keys) {
    const auto found = tracked_.find(key);
    if (found == tracked_.end()) continue;
    Tracked& tracked = found->second;
    tracked.forecaster = nws::AdaptiveForecaster();
    tracked.drift = DriftTracker(policy_.window);
    drifting_.erase(key);  // an empty window has no verdict
    tracked.dirty = true;
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

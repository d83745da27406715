// The series store: the daemon's write path.
//
// Every measured pair owns one nws::TimeSeries (held by an
// nws::MemoryServer — the NWS memory with its dump/restore persistence
// format), one nws::AdaptiveForecaster (the NWS predictor battery) and
// one DriftTracker, all behind one mutex. The measurement loop and
// SERIES queries share that mutex; nothing here is on the snapshot read
// path at all (queries answered from the published MonitorSnapshot take
// no lock in this file).
//
// record() is forecast-then-observe: the pre-observation forecast is
// compared against the arriving measurement (that error feeds the drift
// tracker), THEN the forecaster learns the value — the only order under
// which the error measures prediction rather than recall.
//
// The fold is incremental. A pair's reading changes only when record()
// or reset_learning() touches its key, so those two mark the key dirty
// and collect() re-forecasts and re-renders only the dirty keys; every
// other pair reuses its cached reading and line. The drifting set is
// kept the same way: a verdict can only change where a key is marked.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "monitor/drift.hpp"
#include "nws/forecast.hpp"
#include "nws/memory.hpp"
#include "nws/series.hpp"

namespace envnws::monitor {

/// One pair's folded state: latest observation + current forecast.
struct PairReading {
  nws::SeriesKey key;
  double time = 0.0;  ///< virtual time of the latest observation
  double value = 0.0;
  nws::Forecast forecast;
  double drift_relative_mae = 0.0;
  bool drifting = false;
};

/// Append a pair's line of MonitorSnapshot::render() to `out` — the one
/// definition of that text (17 significant digits for every double).
void append_pair_line(std::string& out, const PairReading& reading);

class SeriesStore {
 public:
  SeriesStore(std::size_t history, DriftPolicy policy);

  struct Recorded {
    bool had_forecast = false;  ///< a forecast existed before this value
    double predicted = 0.0;
    double relative_error = 0.0;
  };
  /// Store one measurement (see file comment for the ordering contract).
  Recorded record(const nws::SeriesKey& key, double time, double value);

  /// Every pair's reading, sorted by key — exactly a snapshot's pairs.
  /// Refreshes only the keys marked since the last call. When `lines` is
  /// given, it receives append_pair_line() of every returned reading, in
  /// the same order, from the same fold.
  [[nodiscard]] std::vector<PairReading> collect(std::string* lines = nullptr);

  /// Up to `max` most recent points of one series (empty when unknown).
  [[nodiscard]] std::vector<nws::Measurement> series(const nws::SeriesKey& key,
                                                     std::size_t max) const;

  /// Keys currently judged drifting, sorted (kept up to date by record()
  /// and reset_learning(), never recomputed by a scan).
  [[nodiscard]] std::vector<nws::SeriesKey> drifting() const;

  /// Forget the learned state (forecaster + drift window, NOT the
  /// measurement history) of the given keys — after an incremental
  /// re-map refreshed their segment.
  void reset_learning(const std::vector<nws::SeriesKey>& keys);

  [[nodiscard]] std::uint64_t stored() const;

  /// The nws::MemoryServer dump, series in key order. restore() routes
  /// every point through record(), so forecasters and drift windows warm
  /// up exactly as if the history had been measured live.
  [[nodiscard]] std::string dump() const;
  Status restore(const std::string& text);

 private:
  struct Tracked {
    nws::AdaptiveForecaster forecaster;
    DriftTracker drift;
    /// The fold's cache: valid while `dirty` is false.
    bool dirty = true;
    PairReading reading;
    std::string line;
    explicit Tracked(std::size_t window) : drift(window) {}
  };

  DriftPolicy policy_;
  mutable std::mutex mutex_;
  nws::MemoryServer memory_;
  std::map<nws::SeriesKey, Tracked> tracked_;
  std::set<nws::SeriesKey> drifting_;  ///< keys whose tracker says drifting
};

}  // namespace envnws::monitor

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
// The fold is incremental and copy-on-write. The store keeps every
// pair's reading and rendered line in sorted, immutable PairChunks of at
// most kChunkMax pairs. A pair's reading changes only when record() or
// reset_learning() touches its key, so those two put the key on a dirty
// list, and collect() refreshes only the listed keys: it copies the
// chunks they live in (splitting one that grows past kChunkMax), and
// hands out a PairList that shares every other chunk with the previous
// one. A collect() costs O(dirty keys × kChunkMax + chunks), however
// many pairs the store holds. The drifting set is kept the same way: a
// verdict can only change where a key is marked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
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

/// A run of consecutive pairs in key order, with their lines. Never
/// changed once a PairList holds it: the store replaces a chunk instead.
struct PairChunk {
  std::vector<PairReading> readings;  ///< sorted by key, never empty
  std::string lines;                  ///< append_pair_line() of each reading, in order
  std::vector<std::size_t> line_ends;  ///< readings[i]'s line ends at lines[line_ends[i]]
};

/// Every pair of a snapshot, sorted by key: a read-only sequence over
/// shared PairChunks. Copying one copies a pointer per chunk.
class PairList {
 public:
  struct Slot {
    std::shared_ptr<const PairChunk> chunk;
    std::size_t end = 0;  ///< pairs in this chunk and every earlier one
  };

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = PairReading;
    using difference_type = std::ptrdiff_t;
    using pointer = const PairReading*;
    using reference = const PairReading&;

    const_iterator() = default;
    reference operator*() const { return (*slots_)[chunk_].chunk->readings[offset_]; }
    pointer operator->() const { return &**this; }
    const_iterator& operator++() {
      if (++offset_ == (*slots_)[chunk_].chunk->readings.size()) {
        ++chunk_;
        offset_ = 0;
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.chunk_ == b.chunk_ && a.offset_ == b.offset_;
    }

   private:
    friend class PairList;
    const_iterator(const std::vector<Slot>* slots, std::size_t chunk)
        : slots_(slots), chunk_(chunk) {}
    const std::vector<Slot>* slots_ = nullptr;
    std::size_t chunk_ = 0;
    std::size_t offset_ = 0;
  };

  [[nodiscard]] std::size_t size() const { return slots_.empty() ? 0 : slots_.back().end; }
  [[nodiscard]] bool empty() const { return slots_.empty(); }
  [[nodiscard]] const_iterator begin() const { return {&slots_, 0}; }
  [[nodiscard]] const_iterator end() const { return {&slots_, slots_.size()}; }
  [[nodiscard]] const PairReading& front() const { return slots_.front().chunk->readings.front(); }
  /// The i-th pair in key order (binary search over the chunks).
  [[nodiscard]] const PairReading& operator[](std::size_t i) const;
  /// Binary search by key; nullptr when the pair is unknown.
  [[nodiscard]] const PairReading* find(const nws::SeriesKey& key) const;
  [[nodiscard]] const std::vector<Slot>& chunks() const { return slots_; }

 private:
  friend class SeriesStore;
  std::vector<Slot> slots_;
};

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

  /// A chunk grows to at most this many pairs; a larger one is split
  /// into runs of kChunkSplit (the last run takes the remainder).
  static constexpr std::size_t kChunkMax = 128;
  static constexpr std::size_t kChunkSplit = 64;

  /// Every pair's reading, sorted by key — exactly a snapshot's pairs.
  /// Refreshes only the keys marked since the last call (see file
  /// comment); earlier PairLists keep reading what they read.
  [[nodiscard]] PairList collect();

  /// Up to `max` most recent points of one series (empty when unknown).
  [[nodiscard]] std::vector<nws::Measurement> series(const nws::SeriesKey& key,
                                                     std::size_t max) const;

  /// Keys currently judged drifting, sorted (kept up to date by record()
  /// and reset_learning(), never recomputed by a scan).
  [[nodiscard]] std::vector<nws::SeriesKey> drifting() const;

  /// Forget the learned state (forecaster + drift window, NOT the
  /// measurement history) of every stored key `selected` accepts — after
  /// an incremental re-map refreshed their segment.
  void reset_learning(const std::function<bool(const nws::SeriesKey&)>& selected);

  /// The nws::MemoryServer dump, series in key order. restore() routes
  /// every point through record(), so forecasters and drift windows warm
  /// up exactly as if the history had been measured live.
  [[nodiscard]] std::string dump() const;
  Status restore(const std::string& text);

 private:
  struct Tracked {
    nws::AdaptiveForecaster forecaster;
    DriftTracker drift;
    bool dirty = false;  ///< on dirty_, waiting for collect()
    explicit Tracked(std::size_t window) : drift(window) {}
  };
  using TrackedMap = std::map<nws::SeriesKey, Tracked>;

  void mark_dirty(TrackedMap::iterator entry);
  [[nodiscard]] PairReading fresh_reading(const TrackedMap::value_type& entry) const;
  /// Replace slot `at` (or insert at the end of an empty list) with the
  /// chunk(s) holding its readings merged with `dirty`; returns how many
  /// slots replaced it.
  std::size_t rebuild_chunk(std::size_t at, const TrackedMap::iterator* dirty,
                            std::size_t count);

  DriftPolicy policy_;
  mutable std::mutex mutex_;
  nws::MemoryServer memory_;
  TrackedMap tracked_;
  std::vector<TrackedMap::iterator> dirty_;  ///< marked since the last collect(), no repeats
  PairList pairs_;                           ///< the last collect()'s readings and lines
  std::set<nws::SeriesKey> drifting_;  ///< keys whose tracker says drifting
};

}  // namespace envnws::monitor

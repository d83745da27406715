// Immutable monitoring snapshots and their RCU-style publication.
//
// The daemon's read path must never contend with its measurement loop:
// a periodic aggregation pass folds the store's fresh measurements and
// nws::forecast predictions into one immutable MonitorSnapshot, which is
// swapped into a SnapshotBoard with a std::shared_ptr atomic exchange.
// Readers load the shared_ptr (one lock-free pointer acquisition, no
// data-structure locks anywhere), then walk a structure no writer will
// ever touch again; the previous snapshot dies when its last reader
// drops it — classic RCU with shared_ptr as the grace period.
//
// Like env::MapResult, a snapshot has ONE definition of bit-identity:
// digest() hashes the full-precision render(), and the replay suite's
// "same trace + same config => identical snapshots" guarantee is exactly
// digest equality. BatchStats-style schedule metadata is deliberately
// absent: a snapshot records what was measured and predicted, never how
// the probing was scheduled, so digests are invariant under probe_jobs
// and query-client count.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "monitor/store.hpp"
#include "nws/forecast.hpp"
#include "nws/series.hpp"

namespace envnws::monitor {

struct MonitorSnapshot {
  std::uint64_t version = 0;  ///< publication counter (0 = empty boot snapshot)
  std::uint64_t cycles = 0;
  double time_s = 0.0;  ///< virtual clock at publication
  std::uint64_t measurements = 0;
  std::uint64_t probe_failures = 0;
  std::uint64_t remaps = 0;             ///< incremental re-mappings so far
  std::uint64_t remap_experiments = 0;  ///< probe experiments those re-maps cost
  std::vector<PairReading> pairs;       ///< sorted by key
  std::vector<std::string> drifting_segments;  ///< sorted, currently in drift

  /// Binary search by key; nullptr when the pair is unknown.
  [[nodiscard]] const PairReading* find(const nws::SeriesKey& key) const;

  /// Full-precision canonical text (17 significant digits everywhere).
  [[nodiscard]] std::string render() const;
  /// FNV-1a 64 of render(), fixed-width hex — THE identity of this
  /// snapshot (see file comment).
  [[nodiscard]] std::string digest() const;
};

/// The published-snapshot slot. current() is wait-free for readers up to
/// the atomic<shared_ptr> load itself; publish() is a single exchange.
/// Never holds a null snapshot: the board boots with an empty version-0
/// snapshot, so readers need no null check.
class SnapshotBoard {
 public:
  SnapshotBoard() : current_(std::make_shared<const MonitorSnapshot>()) {}

  [[nodiscard]] std::shared_ptr<const MonitorSnapshot> current() const {
    return current_.load(std::memory_order_acquire);
  }

  void publish(std::shared_ptr<const MonitorSnapshot> next) {
    if (next == nullptr) return;
    current_.store(std::move(next), std::memory_order_release);
  }

 private:
  std::atomic<std::shared_ptr<const MonitorSnapshot>> current_;
};

/// The aggregation pass: fold the store's current state into a fresh
/// snapshot (counters supplied by the daemon).
[[nodiscard]] std::shared_ptr<const MonitorSnapshot> build_snapshot(
    const SeriesStore& store, std::uint64_t version, std::uint64_t cycles, double time_s,
    std::uint64_t measurements, std::uint64_t probe_failures, std::uint64_t remaps,
    std::uint64_t remap_experiments, std::vector<std::string> drifting_segments);

}  // namespace envnws::monitor

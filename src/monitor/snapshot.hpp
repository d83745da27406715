// Immutable monitoring snapshots and their RCU-style publication.
//
// The daemon's read path must never contend with its measurement loop:
// a periodic aggregation pass folds the store's fresh measurements and
// nws::forecast predictions into one immutable MonitorSnapshot, which is
// swapped into a SnapshotBoard. The board's mutex is held only to copy
// or swap one std::shared_ptr, never while a snapshot is built or read:
// readers take their pointer, then walk a structure no writer will ever
// touch again; the previous snapshot dies when its last reader drops
// it — classic RCU with shared_ptr as the grace period.
//
// Publishing costs O(pairs the cycle refreshed + √pairs), not O(pairs):
// a snapshot's pairs are the store's copy-on-write table of leaves and
// interior nodes (see monitor/store.hpp), so it shares every leaf and
// node no probe touched with the snapshot before it, and nothing is
// hashed at publication.
//
// Like env::MapResult, a snapshot has ONE definition of bit-identity:
// the FNV-1a digest of the full-precision render(), and the replay
// suite's "same trace + same config => identical snapshots" guarantee is
// exactly digest equality. The digest is computed on its first read (a
// SNAPSHOT reply, an observer, a test), at most once per snapshot and
// safely from any thread: FNV-1a chains, so hashing the header and then
// each leaf's rendered lines gives the digest of render() without
// rendering it. BatchStats-style schedule metadata is deliberately
// absent: a snapshot records what was measured and predicted, never how
// the probing was scheduled, so digests are invariant under probe_jobs
// and query-client count.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
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
  PairList pairs;                       ///< sorted by key
  std::vector<std::string> drifting_segments;  ///< sorted, currently in drift

  /// Binary search by key; nullptr when the pair is unknown.
  [[nodiscard]] const PairReading* find(const nws::SeriesKey& key) const {
    return pairs.find(key);
  }

  /// Full-precision canonical text (17 significant digits everywhere):
  /// the header, then append_pair_line() of every pair.
  [[nodiscard]] std::string render() const;
  /// FNV-1a 64 of render(), fixed-width hex — THE identity of this
  /// snapshot (see file comment). Computed by the first call, from any
  /// thread; later calls return the same string.
  [[nodiscard]] const std::string& digest() const;

 private:
  [[nodiscard]] std::string header() const;

  mutable std::once_flag digest_once_;
  mutable std::string digest_;
};

/// The published-snapshot slot. The mutex guards only the pointer: a
/// reader copies it, a publisher swaps it, and neither holds the lock
/// while anything else happens. Never holds a null snapshot: the board
/// boots with an empty version-0 snapshot, so readers need no null check.
class SnapshotBoard {
 public:
  SnapshotBoard();

  [[nodiscard]] std::shared_ptr<const MonitorSnapshot> current() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return current_;
  }

  /// The replaced snapshot is released after the lock, in `next`.
  void publish(std::shared_ptr<const MonitorSnapshot> next) {
    if (next == nullptr) return;
    std::lock_guard<std::mutex> lock(mutex_);
    current_.swap(next);
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const MonitorSnapshot> current_;
};

/// The aggregation pass: fold the store's dirty pairs into a fresh
/// snapshot (counters supplied by the daemon).
[[nodiscard]] std::shared_ptr<const MonitorSnapshot> build_snapshot(
    SeriesStore& store, std::uint64_t version, std::uint64_t cycles, double time_s,
    std::uint64_t measurements, std::uint64_t probe_failures, std::uint64_t remaps,
    std::uint64_t remap_experiments, std::vector<std::string> drifting_segments);

}  // namespace envnws::monitor

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
// pair's reading and rendered line in a two-level table of immutable
// pieces. Leaves (PairLeaf) hold at most PairLeaf::kMax (16) consecutive
// pairs in key order with their lines; interior nodes (PairNode) hold a
// run of about √(leaves) leaf pointers; the root, a PairList, holds the
// node pointers. A pair's reading changes only when record() or
// reset_learning() touches its key, so those two put the key on a dirty
// list, and collect() refreshes only the listed keys. It rebuilds the
// leaves they live in, copies the nodes holding those leaves and the
// root, and shares every other leaf and node with the previous
// PairList. With f = node_fanout(leaves) = max(8, ⌈√leaves⌉), a leaf
// that grows past 16 pairs splits into runs of 8, a node past 2f leaves
// into runs of f, and a root that has gathered more than 2f nodes is
// regrouped into nodes of f (amortized O(1) per leaf: it takes the
// leaves to double). So a publish costs O(dirty keys × 16 + √leaves)
// pointer and reading copies, however many pairs the store holds. The drifting set is kept
// the same way: a verdict can only change where a key is marked.
#pragma once

#include <array>
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

/// At most kMax consecutive pairs in key order, with their lines. Never
/// changed once a PairList holds it: the store replaces a leaf instead.
/// The readings sit in the leaf itself, so a rebuilt leaf costs two
/// allocations: the leaf and its text.
struct PairLeaf {
  static constexpr std::size_t kMax = 16;
  std::size_t size = 0;                    ///< readings in use, 1..kMax
  std::array<PairReading, kMax> readings;  ///< the first `size`, sorted by key
  std::array<std::size_t, kMax> line_ends;  ///< readings[i]'s line ends at lines[line_ends[i]]
  std::string lines;                        ///< append_pair_line() of each reading, in order

  [[nodiscard]] const PairReading& back() const { return readings[size - 1]; }
};

/// A run of consecutive leaves: the table's interior level. Never
/// changed once a PairList holds it.
struct PairNode {
  struct Slot {
    std::shared_ptr<const PairLeaf> leaf;
    std::size_t end = 0;  ///< pairs in this leaf and every earlier one of the node
  };
  std::vector<Slot> leaves;  ///< never empty

  [[nodiscard]] std::size_t size() const { return leaves.back().end; }
  [[nodiscard]] const PairReading& back() const { return leaves.back().leaf->back(); }
};

/// Every pair of a snapshot, sorted by key: a read-only sequence over
/// shared PairNodes and PairLeaves. Copying one copies a pointer per node.
class PairList {
 public:
  struct Slot {
    std::shared_ptr<const PairNode> node;
    std::size_t end = 0;  ///< pairs in this node and every earlier one
  };

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = PairReading;
    using difference_type = std::ptrdiff_t;
    using pointer = const PairReading*;
    using reference = const PairReading&;

    const_iterator() = default;
    reference operator*() const { return leaf_->readings[offset_]; }
    pointer operator->() const { return &**this; }
    const_iterator& operator++() {
      if (++offset_ < leaf_->size) return *this;
      offset_ = 0;
      if (++leaf_index_ == (*nodes_)[node_].node->leaves.size()) {
        leaf_index_ = 0;
        ++node_;
      }
      leaf_ = leaf_at();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.node_ == b.node_ && a.leaf_index_ == b.leaf_index_ && a.offset_ == b.offset_;
    }

   private:
    friend class PairList;
    const_iterator(const std::vector<Slot>* nodes, std::size_t node)
        : nodes_(nodes), node_(node), leaf_(leaf_at()) {}
    [[nodiscard]] const PairLeaf* leaf_at() const {
      return node_ < nodes_->size() ? (*nodes_)[node_].node->leaves[leaf_index_].leaf.get()
                                    : nullptr;
    }
    const std::vector<Slot>* nodes_ = nullptr;
    std::size_t node_ = 0;
    std::size_t leaf_index_ = 0;
    std::size_t offset_ = 0;
    const PairLeaf* leaf_ = nullptr;
  };

  [[nodiscard]] std::size_t size() const { return nodes_.empty() ? 0 : nodes_.back().end; }
  [[nodiscard]] bool empty() const { return nodes_.empty(); }
  [[nodiscard]] const_iterator begin() const { return {&nodes_, 0}; }
  [[nodiscard]] const_iterator end() const { return {&nodes_, nodes_.size()}; }
  [[nodiscard]] const PairReading& front() const {
    return nodes_.front().node->leaves.front().leaf->readings.front();
  }
  /// The i-th pair in key order (one binary search per level).
  [[nodiscard]] const PairReading& operator[](std::size_t i) const;
  /// Binary search by key, one per level; nullptr when the pair is unknown.
  [[nodiscard]] const PairReading* find(const nws::SeriesKey& key) const;
  [[nodiscard]] const std::vector<Slot>& nodes() const { return nodes_; }
  /// FNV-1a 64 over every pair's line in key order, chained from `state`.
  [[nodiscard]] std::uint64_t hash_lines(std::uint64_t state) const;

 private:
  friend class SeriesStore;
  std::vector<Slot> nodes_;
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

  /// A leaf past PairLeaf::kMax pairs is split into runs of kLeafSplit
  /// (the last run takes the remainder).
  static constexpr std::size_t kLeafSplit = 8;
  /// The interior level's run length for a table of `leaves` leaves:
  /// max(8, ⌈√leaves⌉). A node past twice this many leaves is split, a
  /// root past twice this many nodes regrouped (see file comment).
  [[nodiscard]] static std::size_t node_fanout(std::size_t leaves);

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
  /// Replace node `at` of the root (or append to an empty root) with a
  /// copy whose leaves hold `dirty` too, split when it outgrew
  /// 2 × `fanout` leaves; returns how many nodes replaced it.
  std::size_t rebuild_node(std::size_t at, const TrackedMap::iterator* dirty, std::size_t count,
                           std::size_t fanout);
  /// Replace leaf `at` of `leaves` (or append to an empty node) with the
  /// leaves holding its readings merged with `dirty`; returns how many.
  std::size_t rebuild_leaf(std::vector<PairNode::Slot>& leaves, std::size_t at,
                           const TrackedMap::iterator* dirty, std::size_t count);

  DriftPolicy policy_;
  mutable std::mutex mutex_;
  nws::MemoryServer memory_;
  TrackedMap tracked_;
  std::vector<TrackedMap::iterator> dirty_;  ///< marked since the last collect(), no repeats
  PairList pairs_;                           ///< the last collect()'s readings and lines
  std::size_t leaves_ = 0;                   ///< leaves under pairs_
  /// rebuild_leaf's merge buffers, kept so their storage is reused.
  std::vector<PairReading> merged_;
  std::string merged_lines_;
  std::vector<std::size_t> merged_ends_;
  std::set<nws::SeriesKey> drifting_;  ///< keys whose tracker says drifting
};

}  // namespace envnws::monitor

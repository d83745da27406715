#include "monitor/store.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/codec.hpp"
#include "common/hash.hpp"

namespace envnws::monitor {

void append_pair_line(std::string& out, const PairReading& reading) {
  reading.key.append_to(out);
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

namespace {

[[nodiscard]] const PairReading& last_reading(const PairNode::Slot& slot) {
  return slot.leaf->back();
}
[[nodiscard]] const PairReading& last_reading(const PairList::Slot& slot) {
  return slot.node->back();
}
[[nodiscard]] std::size_t pairs_in(const PairNode::Slot& slot) { return slot.leaf->size; }
[[nodiscard]] std::size_t pairs_in(const PairList::Slot& slot) { return slot.node->size(); }

/// The slot holding pair `i` of one level; `i` becomes its index there.
template <class Slot>
const Slot& slot_holding(const std::vector<Slot>& slots, std::size_t& i) {
  const auto slot = std::upper_bound(slots.begin(), slots.end(), i,
                                     [](std::size_t index, const Slot& s) { return index < s.end; });
  if (slot != slots.begin()) i -= std::prev(slot)->end;
  return *slot;
}

/// The first slot of one level whose last key is not below `key`: the
/// only one that can hold it.
template <class Slot>
auto first_not_below(const std::vector<Slot>& slots, const nws::SeriesKey& key) {
  return std::lower_bound(slots.begin(), slots.end(), key,
                          [](const Slot& s, const nws::SeriesKey& wanted) {
                            return last_reading(s).key < wanted;
                          });
}

/// End of the run that starts at `begin` when `size` items are cut into
/// runs of `split`, the last run taking a remainder of at most `max`.
[[nodiscard]] std::size_t run_end(std::size_t begin, std::size_t size, std::size_t max,
                                  std::size_t split) {
  return size - begin > max ? begin + split : size;
}

/// Fold the sorted dirty keys [dirty, dirty + count) into one level of
/// the table. A key belongs to the first slot whose last key is not
/// below it, or to the last slot; that slot takes every dirty key up to
/// its last key (the last slot takes the rest), and `rebuild(at, keys,
/// n)` replaces it with the slot(s) of its rebuilt subtree, returning
/// how many. Every slot's cumulative `end` comes out right, and no
/// subtree that no key reaches is read.
template <class Slot, class Dirty, class Rebuild>
void fold_level(std::vector<Slot>& slots, const Dirty* dirty, std::size_t count,
                Rebuild&& rebuild) {
  std::size_t at = 0;
  // Slots before `fixed` carry their new `end`; a slot no dirty key
  // touches only moves by `added`, the pairs the rebuilt slots before it
  // gained.
  std::size_t fixed = 0;
  std::size_t added = 0;
  for (std::size_t first = 0; first < count;) {
    if (at + 1 < slots.size()) {
      const nws::SeriesKey& key = dirty[first]->first;
      at = static_cast<std::size_t>(
          std::partition_point(slots.begin() + static_cast<std::ptrdiff_t>(at), slots.end() - 1,
                               [&](const Slot& slot) { return last_reading(slot).key < key; }) -
          slots.begin());
    }
    std::size_t last = count;
    if (at + 1 < slots.size()) {
      const nws::SeriesKey& bound = last_reading(slots[at]).key;
      last = first + 1;
      while (last < count && !(bound < dirty[last]->first)) ++last;
    }
    for (; fixed < at; ++fixed) slots[fixed].end += added;
    const std::size_t old_end = at < slots.size() ? slots[at].end : 0;
    const std::size_t pieces = rebuild(at, dirty + first, last - first);
    std::size_t end = at == 0 ? 0 : slots[at - 1].end;
    for (; fixed < at + pieces; ++fixed) slots[fixed].end = end += pairs_in(slots[fixed]);
    added = end - old_end;
    at = fixed;
    first = last;
  }
  for (; fixed < slots.size(); ++fixed) slots[fixed].end += added;
}

/// Append to `out` nodes of `fanout` of `leaves`, the last node taking a
/// remainder of at most 2 × `fanout`. Each node's leaf ends are
/// recounted from its own first leaf; the root ends are left to the
/// caller.
void cut_into_nodes(const std::vector<PairNode::Slot>& leaves, std::size_t fanout,
                    std::vector<PairList::Slot>& out) {
  for (std::size_t begin = 0; begin < leaves.size();) {
    const std::size_t end = run_end(begin, leaves.size(), 2 * fanout, fanout);
    auto node = std::make_shared<PairNode>();
    node->leaves.assign(leaves.begin() + static_cast<std::ptrdiff_t>(begin),
                        leaves.begin() + static_cast<std::ptrdiff_t>(end));
    std::size_t pairs = 0;
    for (PairNode::Slot& slot : node->leaves) slot.end = pairs += slot.leaf->size;
    out.push_back({std::move(node), 0});
    begin = end;
  }
}

}  // namespace

const PairReading& PairList::operator[](std::size_t i) const {
  const PairNode& node = *slot_holding(nodes_, i).node;
  return slot_holding(node.leaves, i).leaf->readings[i];
}

const PairReading* PairList::find(const nws::SeriesKey& key) const {
  const auto node = first_not_below(nodes_, key);
  if (node == nodes_.end()) return nullptr;
  // The node's last key is not below `key`, so one of its leaves is not.
  const PairLeaf& leaf = *first_not_below(node->node->leaves, key)->leaf;
  const PairReading* const begin = leaf.readings.data();
  const PairReading* const found = std::lower_bound(
      begin, begin + leaf.size, key,
      [](const PairReading& reading, const nws::SeriesKey& wanted) { return reading.key < wanted; });
  return found->key == key ? found : nullptr;
}

std::uint64_t PairList::hash_lines(std::uint64_t state) const {
  for (const Slot& node : nodes_) {
    for (const PairNode::Slot& leaf : node.node->leaves) {
      state = hash::fnv1a64(leaf.leaf->lines, state);
    }
  }
  return state;
}

std::size_t SeriesStore::node_fanout(std::size_t leaves) {
  auto fanout = static_cast<std::size_t>(std::sqrt(static_cast<double>(leaves)));
  while (fanout * fanout < leaves) ++fanout;
  return std::max<std::size_t>(fanout, 8);
}

SeriesStore::SeriesStore(std::size_t history, DriftPolicy policy)
    : policy_(policy), memory_("monitord", simnet::NodeId(0), std::max<std::size_t>(history, 1)) {}

SeriesStore::Recorded SeriesStore::record(const nws::SeriesKey& key, double time, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto entry = tracked_.try_emplace(key, policy_.window).first;
  Tracked& tracked = entry->second;
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
  mark_dirty(entry);
  return recorded;
}

void SeriesStore::mark_dirty(TrackedMap::iterator entry) {
  if (entry->second.dirty) return;
  entry->second.dirty = true;
  dirty_.push_back(entry);
}

PairReading SeriesStore::fresh_reading(const TrackedMap::value_type& entry) const {
  const auto& [key, tracked] = entry;
  const nws::Measurement& latest = memory_.find(key)->latest();
  PairReading reading;
  reading.key = key;
  reading.time = latest.time;
  reading.value = latest.value;
  reading.forecast = tracked.forecaster.forecast();
  reading.drift_relative_mae = tracked.drift.relative_mae();
  reading.drifting = tracked.drift.drifting(policy_);
  return reading;
}

std::size_t SeriesStore::rebuild_leaf(std::vector<PairNode::Slot>& leaves, std::size_t at,
                                      const TrackedMap::iterator* dirty, std::size_t count) {
  const PairLeaf* old = at < leaves.size() ? leaves[at].leaf.get() : nullptr;
  const std::size_t old_size = old == nullptr ? 0 : old->size;

  // Merge the old leaf with the dirty keys: a dirty key replaces the
  // reading and line of an equal key, or slots in as a new pair.
  merged_.clear();
  merged_lines_.clear();
  merged_ends_.clear();
  std::size_t i = 0, j = 0;
  while (i < old_size || j < count) {
    if (j < count && (i == old_size || !(old->readings[i].key < dirty[j]->first))) {
      if (i < old_size && old->readings[i].key == dirty[j]->first) ++i;
      merged_.push_back(fresh_reading(*dirty[j++]));
      append_pair_line(merged_lines_, merged_.back());
    } else {
      merged_.push_back(old->readings[i]);
      const std::size_t begin = i == 0 ? 0 : old->line_ends[i - 1];
      merged_lines_.append(old->lines, begin, old->line_ends[i] - begin);
      ++i;
    }
    merged_ends_.push_back(merged_lines_.size());
  }

  // Cut the merge into leaves: the first takes the old leaf's slot, the
  // rest are inserted after it.
  const std::size_t size = merged_.size();
  std::size_t pieces = 0;
  for (std::size_t begin = 0; begin < size; ++pieces) {
    const std::size_t end = run_end(begin, size, PairLeaf::kMax, kLeafSplit);
    const std::size_t from = begin == 0 ? 0 : merged_ends_[begin - 1];
    auto leaf = std::make_shared<PairLeaf>();
    leaf->size = end - begin;
    leaf->lines.assign(merged_lines_, from, merged_ends_[end - 1] - from);
    for (std::size_t k = begin; k < end; ++k) {
      leaf->readings[k - begin] = std::move(merged_[k]);
      leaf->line_ends[k - begin] = merged_ends_[k] - from;
    }
    if (pieces == 0 && old != nullptr) {
      leaves[at].leaf = std::move(leaf);
    } else {
      leaves.insert(leaves.begin() + static_cast<std::ptrdiff_t>(at + pieces),
                    PairNode::Slot{std::move(leaf), 0});
    }
    begin = end;
  }
  leaves_ += pieces - (old == nullptr ? 0 : 1);
  return pieces;
}

std::size_t SeriesStore::rebuild_node(std::size_t at, const TrackedMap::iterator* dirty,
                                      std::size_t count, std::size_t fanout) {
  std::vector<PairList::Slot>& nodes = pairs_.nodes_;
  const bool existed = at < nodes.size();
  auto node = existed ? std::make_shared<PairNode>(*nodes[at].node) : std::make_shared<PairNode>();
  fold_level(node->leaves, dirty, count,
             [&](std::size_t leaf, const TrackedMap::iterator* keys, std::size_t n) {
               return rebuild_leaf(node->leaves, leaf, keys, n);
             });
  if (node->leaves.size() <= 2 * fanout) {
    if (!existed) nodes.emplace_back();
    nodes[at].node = std::move(node);
    return 1;
  }
  std::vector<PairList::Slot> pieces;
  cut_into_nodes(node->leaves, fanout, pieces);
  if (existed) nodes.erase(nodes.begin() + static_cast<std::ptrdiff_t>(at));
  nodes.insert(nodes.begin() + static_cast<std::ptrdiff_t>(at),
               std::make_move_iterator(pieces.begin()), std::make_move_iterator(pieces.end()));
  return pieces.size();
}

PairList SeriesStore::collect() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dirty_.empty()) return pairs_;
  std::sort(dirty_.begin(), dirty_.end(),
            [](TrackedMap::iterator a, TrackedMap::iterator b) { return a->first < b->first; });
  const std::size_t fanout = node_fanout(leaves_);
  std::vector<PairList::Slot>& nodes = pairs_.nodes_;
  fold_level(nodes, dirty_.data(), dirty_.size(),
             [&](std::size_t at, const TrackedMap::iterator* keys, std::size_t n) {
               return rebuild_node(at, keys, n, fanout);
             });
  // Nodes split at the √ of the table as it was then; once the root has
  // gathered too many small ones, regroup every leaf at today's √.
  if (const std::size_t now = node_fanout(leaves_); nodes.size() > 2 * now) {
    std::vector<PairNode::Slot> leaves;
    leaves.reserve(leaves_);
    for (const PairList::Slot& slot : nodes) {
      leaves.insert(leaves.end(), slot.node->leaves.begin(), slot.node->leaves.end());
    }
    nodes.clear();
    cut_into_nodes(leaves, now, nodes);
    std::size_t pairs = 0;
    for (PairList::Slot& slot : nodes) slot.end = pairs += slot.node->size();
  }
  for (const TrackedMap::iterator entry : dirty_) entry->second.dirty = false;
  dirty_.clear();
  return pairs_;
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

void SeriesStore::reset_learning(const std::function<bool(const nws::SeriesKey&)>& selected) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto entry = tracked_.begin(); entry != tracked_.end(); ++entry) {
    if (!selected(entry->first)) continue;
    Tracked& tracked = entry->second;
    tracked.forecaster = nws::AdaptiveForecaster();
    tracked.drift = DriftTracker(policy_.window);
    drifting_.erase(entry->first);  // an empty window has no verdict
    mark_dirty(entry);
  }
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

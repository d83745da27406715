#include "monitor/store.hpp"

#include <algorithm>
#include <iterator>

#include "common/codec.hpp"

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

const PairReading& PairList::operator[](std::size_t i) const {
  const auto slot = std::upper_bound(slots_.begin(), slots_.end(), i,
                                     [](std::size_t index, const Slot& s) { return index < s.end; });
  const std::size_t first = slot == slots_.begin() ? 0 : std::prev(slot)->end;
  return slot->chunk->readings[i - first];
}

const PairReading* PairList::find(const nws::SeriesKey& key) const {
  // Only the first chunk whose last key is not below `key` can hold it.
  const auto slot = std::lower_bound(
      slots_.begin(), slots_.end(), key,
      [](const Slot& s, const nws::SeriesKey& wanted) { return s.chunk->readings.back().key < wanted; });
  if (slot == slots_.end()) return nullptr;
  const std::vector<PairReading>& readings = slot->chunk->readings;
  const auto it = std::lower_bound(
      readings.begin(), readings.end(), key,
      [](const PairReading& reading, const nws::SeriesKey& wanted) { return reading.key < wanted; });
  return it->key == key ? &*it : nullptr;
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

std::size_t SeriesStore::rebuild_chunk(std::size_t at, const TrackedMap::iterator* dirty,
                                       std::size_t count) {
  std::vector<PairList::Slot>& slots = pairs_.slots_;
  const PairChunk* old = at < slots.size() ? slots[at].chunk.get() : nullptr;
  const std::size_t old_size = old == nullptr ? 0 : old->readings.size();

  // Merge the old chunk with the dirty keys: a dirty key replaces the
  // reading and line of an equal key, or slots in as a new pair.
  auto merged = std::make_shared<PairChunk>();
  merged->readings.reserve(old_size + count);
  merged->line_ends.reserve(old_size + count);
  if (old != nullptr) merged->lines.reserve(old->lines.size() + old->lines.size() / old_size * count);
  std::size_t i = 0, j = 0;
  while (i < old_size || j < count) {
    if (j < count && (i == old_size || !(old->readings[i].key < dirty[j]->first))) {
      if (i < old_size && old->readings[i].key == dirty[j]->first) ++i;
      merged->readings.push_back(fresh_reading(*dirty[j++]));
      append_pair_line(merged->lines, merged->readings.back());
    } else {
      merged->readings.push_back(old->readings[i]);
      const std::size_t begin = i == 0 ? 0 : old->line_ends[i - 1];
      merged->lines.append(old->lines, begin, old->line_ends[i] - begin);
      ++i;
    }
    merged->line_ends.push_back(merged->lines.size());
  }

  const std::size_t size = merged->readings.size();
  if (size <= kChunkMax) {
    if (old == nullptr) slots.emplace_back();
    slots[at].chunk = std::move(merged);
    return 1;
  }
  std::vector<PairList::Slot> pieces;
  for (std::size_t begin = 0; begin < size;) {
    const std::size_t end = size - begin > kChunkMax ? begin + kChunkSplit : size;
    const std::size_t from = begin == 0 ? 0 : merged->line_ends[begin - 1];
    auto piece = std::make_shared<PairChunk>();
    piece->readings.assign(std::make_move_iterator(merged->readings.begin() + begin),
                           std::make_move_iterator(merged->readings.begin() + end));
    piece->lines.assign(merged->lines, from, merged->line_ends[end - 1] - from);
    for (std::size_t k = begin; k < end; ++k) piece->line_ends.push_back(merged->line_ends[k] - from);
    pieces.push_back({std::move(piece), 0});
    begin = end;
  }
  if (old != nullptr) slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(at));
  slots.insert(slots.begin() + static_cast<std::ptrdiff_t>(at),
               std::make_move_iterator(pieces.begin()), std::make_move_iterator(pieces.end()));
  return pieces.size();
}

PairList SeriesStore::collect() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dirty_.empty()) return pairs_;
  std::sort(dirty_.begin(), dirty_.end(),
            [](TrackedMap::iterator a, TrackedMap::iterator b) { return a->first < b->first; });
  std::vector<PairList::Slot>& slots = pairs_.slots_;
  std::size_t at = 0;
  // Slots before `fixed` carry their new `end`; a slot no dirty key
  // touches only moves by `added`, the pairs the rebuilt chunks before
  // it gained. So no untouched chunk is read.
  std::size_t fixed = 0;
  std::size_t added = 0;
  for (std::size_t first = 0; first < dirty_.size();) {
    // A key belongs to the first chunk whose last key is not below it,
    // or to the last chunk; that chunk takes every dirty key up to its
    // last key (the last chunk takes the rest). The chunks are sorted,
    // so a binary search finds it.
    if (at + 1 < slots.size()) {
      const nws::SeriesKey& key = dirty_[first]->first;
      at = static_cast<std::size_t>(
          std::partition_point(slots.begin() + static_cast<std::ptrdiff_t>(at), slots.end() - 1,
                               [&](const PairList::Slot& slot) {
                                 return slot.chunk->readings.back().key < key;
                               }) -
          slots.begin());
    }
    std::size_t last = dirty_.size();
    if (at + 1 < slots.size()) {
      const nws::SeriesKey& bound = slots[at].chunk->readings.back().key;
      last = first + 1;
      while (last < dirty_.size() && !(bound < dirty_[last]->first)) ++last;
    }
    for (; fixed < at; ++fixed) slots[fixed].end += added;
    const std::size_t old_end = at < slots.size() ? slots[at].end : 0;
    const std::size_t pieces = rebuild_chunk(at, dirty_.data() + first, last - first);
    std::size_t end = at == 0 ? 0 : slots[at - 1].end;
    for (; fixed < at + pieces; ++fixed) {
      slots[fixed].end = end += slots[fixed].chunk->readings.size();
    }
    added = end - old_end;
    at = fixed;
    first = last;
  }
  for (; fixed < slots.size(); ++fixed) slots[fixed].end += added;
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

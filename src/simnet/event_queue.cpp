#include "simnet/event_queue.hpp"

#include <cassert>

namespace envnws::simnet {

EventHandle EventQueue::schedule_at(SimTime t, EventFn fn) {
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& entry = slots_[slot];
  entry.fn = std::move(fn);
  entry.pending = true;
  ++live_;
  heap_.push(Key{t, next_seq_++, slot, entry.generation});
  return (static_cast<EventHandle>(entry.generation) << 32) | slot;
}

void EventQueue::release(std::uint32_t slot) {
  Slot& entry = slots_[slot];
  entry.fn = nullptr;
  entry.pending = false;
  ++entry.generation;
  --live_;
  free_slots_.push_back(slot);
}

void EventQueue::cancel(EventHandle handle) {
  const auto slot = static_cast<std::uint32_t>(handle);
  const auto generation = static_cast<std::uint32_t>(handle >> 32);
  if (slot >= slots_.size()) return;
  const Slot& entry = slots_[slot];
  // The heap entry stays behind; drop_stale_top() discards it by its
  // generation once it reaches the top.
  if (entry.pending && entry.generation == generation) release(slot);
}

void EventQueue::drop_stale_top() {
  while (!heap_.empty() && !is_live(heap_.top())) heap_.pop();
}

SimTime EventQueue::next_time() {
  drop_stale_top();
  assert(!heap_.empty());
  return heap_.top().time;
}

bool EventQueue::pop(SimTime& time_out, EventFn& fn_out) {
  drop_stale_top();
  if (heap_.empty()) return false;
  const Key key = heap_.top();
  heap_.pop();
  time_out = key.time;
  fn_out = std::move(slots_[key.slot].fn);
  release(key.slot);
  return true;
}

}  // namespace envnws::simnet

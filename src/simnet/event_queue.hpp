// Deterministic discrete-event queue.
//
// Events at equal timestamps fire in insertion order (a monotonically
// increasing sequence number breaks ties), so a given scenario replays
// identically on every run and platform.
//
// Callbacks live in a slot vector whose freed slots are reused through a
// free list, so a long-running simulation holds as many slots as it ever
// had events pending at once, and scheduling allocates nothing once the
// slot vector and the heap have grown to that size. A handle names a slot
// and the slot's generation at scheduling time; the generation changes
// whenever the slot is freed, so a stale handle (its event fired or was
// cancelled, its slot since reused) never cancels a newer event.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "simnet/types.hpp"

namespace envnws::simnet {

using EventFn = std::function<void()>;
/// Opaque handle for cancellation: valid until its event fires or is
/// cancelled, inert (cancel() does nothing) afterwards.
using EventHandle = std::uint64_t;

class EventQueue {
 public:
  EventHandle schedule_at(SimTime t, EventFn fn);
  /// Remove a pending event; no-op if it already fired or was cancelled.
  void cancel(EventHandle handle);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }
  /// Timestamp of the next live event; only valid when !empty(). Drops
  /// cancelled entries off the heap top on the way, so it never reports
  /// the time of an event that will not run.
  [[nodiscard]] SimTime next_time();

  /// Pop the next event (time order, then insertion order). The callable
  /// is returned rather than invoked so the caller can advance its clock
  /// first. Returns false when the queue is empty.
  bool pop(SimTime& time_out, EventFn& fn_out);

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
    bool operator>(const Key& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };
  struct Slot {
    EventFn fn;
    /// Bumped on every release; starts at 1 so handle 0 is never live.
    std::uint32_t generation = 1;
    bool pending = false;
  };

  [[nodiscard]] bool is_live(const Key& key) const {
    const Slot& slot = slots_[key.slot];
    return slot.pending && slot.generation == key.generation;
  }
  void release(std::uint32_t slot);
  /// Pop cancelled entries until a live one (or nothing) is on top.
  void drop_stale_top();

  std::priority_queue<Key, std::vector<Key>, std::greater<>> heap_;  ///< min on (time, seq)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace envnws::simnet

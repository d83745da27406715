#include "simnet/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace envnws::simnet {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(3.0, [&order] { order.push_back(3); });
  queue.schedule_at(1.0, [&order] { order.push_back(1); });
  queue.schedule_at(2.0, [&order] { order.push_back(2); });
  SimTime t = 0;
  EventFn fn;
  while (queue.pop(t, fn)) fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInInsertionOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  SimTime t = 0;
  EventFn fn;
  while (queue.pop(t, fn)) fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue queue;
  bool fired = false;
  const EventHandle handle = queue.schedule_at(1.0, [&fired] { fired = true; });
  queue.cancel(handle);
  SimTime t = 0;
  EventFn fn;
  EXPECT_FALSE(queue.pop(t, fn));
  EXPECT_FALSE(fired);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, CancelIsIdempotentAndSelective) {
  EventQueue queue;
  int fired = 0;
  const EventHandle a = queue.schedule_at(1.0, [&fired] { ++fired; });
  queue.schedule_at(2.0, [&fired] { ++fired; });
  queue.cancel(a);
  queue.cancel(a);  // double cancel is a no-op
  SimTime t = 0;
  EventFn fn;
  while (queue.pop(t, fn)) fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, NextTimeReportsEarliestLiveEvent) {
  EventQueue queue;
  const EventHandle early = queue.schedule_at(1.0, [] {});
  queue.schedule_at(2.0, [] {});
  EXPECT_DOUBLE_EQ(queue.next_time(), 1.0);
  queue.cancel(early);
  // The cancelled entry may still sit on the heap; neither next_time()
  // nor pop() may surface it.
  EXPECT_DOUBLE_EQ(queue.next_time(), 2.0);
  SimTime t = 0;
  EventFn fn;
  ASSERT_TRUE(queue.pop(t, fn));
  EXPECT_DOUBLE_EQ(t, 2.0);
}

TEST(EventQueue, NextTimeSkipsCancelledEntriesBuriedUnderReuse) {
  EventQueue queue;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 5; ++i) handles.push_back(queue.schedule_at(1.0 + i, [] {}));
  queue.schedule_at(9.0, [] {});
  for (const EventHandle handle : handles) queue.cancel(handle);
  // The freed slots are reused by later events; the stale heap entries
  // for times 1..5 must still not count as the next event.
  queue.schedule_at(7.0, [] {});
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_DOUBLE_EQ(queue.next_time(), 7.0);
}

TEST(EventQueue, SizeCountsLiveEventsOnly) {
  EventQueue queue;
  const EventHandle a = queue.schedule_at(1.0, [] {});
  queue.schedule_at(2.0, [] {});
  EXPECT_EQ(queue.size(), 2u);
  queue.cancel(a);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueue, StaleHandleNeverCancelsTheSlotsNextEvent) {
  EventQueue queue;
  SimTime t = 0;
  EventFn fn;
  // A handle whose event fired: its slot is reused by the next event.
  const EventHandle fired = queue.schedule_at(1.0, [] {});
  ASSERT_TRUE(queue.pop(t, fn));
  bool second = false;
  queue.schedule_at(2.0, [&second] { second = true; });
  queue.cancel(fired);
  EXPECT_EQ(queue.size(), 1u);
  // A handle whose event was cancelled: cancelling it again after the
  // slot was reused must not touch the new occupant either.
  const EventHandle cancelled = queue.schedule_at(3.0, [] {});
  queue.cancel(cancelled);
  bool third = false;
  queue.schedule_at(4.0, [&third] { third = true; });
  queue.cancel(cancelled);
  queue.cancel(fired);
  EXPECT_EQ(queue.size(), 2u);
  while (queue.pop(t, fn)) fn();
  EXPECT_TRUE(second);
  EXPECT_TRUE(third);
  EXPECT_DOUBLE_EQ(t, 4.0);
}

TEST(EventQueue, EqualTimesStayFifoAcrossSlotReuse) {
  EventQueue queue;
  std::vector<int> order;
  SimTime t = 0;
  EventFn fn;
  // Fire and cancel a few events so later ones land in freed slots in
  // an order unrelated to their insertion order.
  std::vector<EventHandle> handles;
  for (int i = 0; i < 6; ++i) handles.push_back(queue.schedule_at(1.0, [] {}));
  queue.cancel(handles[4]);
  queue.cancel(handles[1]);
  ASSERT_TRUE(queue.pop(t, fn));
  ASSERT_TRUE(queue.pop(t, fn));
  for (int i = 0; i < 8; ++i) queue.schedule_at(5.0, [&order, i] { order.push_back(i); });
  queue.cancel(handles[5]);
  while (queue.pop(t, fn)) fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

}  // namespace
}  // namespace envnws::simnet

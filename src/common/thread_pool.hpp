// Fixed-size worker pool.
//
// The simulation core is deliberately single-threaded (determinism), but
// ENV maps firewall zones independently: Mapper::map_zones, the pool's
// one caller, runs each zone's interrogation on its own probe engine
// across the workers and merges the results in zone order. The pool
// hands out std::future results so callers keep ordinary structured
// control flow.
//
// For the schedule-exploration harness the pool has a second, virtual
// mode: constructed with a testing::VirtualScheduler it spawns no OS
// threads at all. Submitted tasks queue up and run cooperatively on the
// caller's thread at drain() points, in whatever order the scheduler
// picks — so a test enumerates the execution orders real workers could
// produce, deterministically.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace envnws::testing {
class VirtualScheduler;
}  // namespace envnws::testing

namespace envnws {

class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  ///
  /// With a `scheduler`, virtual mode: no OS threads; tasks run at
  /// drain() points on the calling thread, in scheduler-picked order
  /// ("pool" decision point). `threads` is reported by size() but has
  /// no other effect — a cooperative pool has no genuine concurrency to
  /// bound. A null scheduler is the real pool, so call sites can pass an
  /// optional seam pointer straight through.
  explicit ThreadPool(std::size_t threads = 0, testing::VirtualScheduler* scheduler = nullptr);

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool virtual_mode() const { return scheduler_ != nullptr; }

  /// Enqueue a callable; returns a future for its result. In virtual
  /// mode the future is only satisfied once drain() runs the task.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(Queued{next_task_id_++, [task] { (*task)(); }});
    }
    wake_.notify_one();
    return result;
  }

  /// Run `fn(i)` for i in [0, count) across the pool and wait for all.
  /// Every task completes before this returns even when some throw; the
  /// first exception in SUBMISSION order is rethrown (not whichever
  /// worker happened to lose the race).
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Virtual mode only: run every queued task on this thread, asking
  /// the scheduler which one goes next whenever more than one is
  /// queued. No-op with real workers (they drain continuously).
  void drain();

 private:
  struct Queued {
    std::size_t id = 0;  ///< submission counter, labels decision points
    std::function<void()> run;
  };

  void worker_loop();

  std::size_t size_ = 0;
  testing::VirtualScheduler* scheduler_ = nullptr;
  std::vector<std::thread> workers_;
  std::deque<Queued> queue_;
  std::size_t next_task_id_ = 0;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

}  // namespace envnws

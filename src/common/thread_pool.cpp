#include "common/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "testing/virtual_scheduler.hpp"

namespace envnws {

ThreadPool::ThreadPool(std::size_t threads, testing::VirtualScheduler* scheduler)
    : scheduler_(scheduler) {
  if (scheduler_ == nullptr) {
    if (threads == 0) threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    size_ = threads;
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
    return;
  }
  size_ = std::max<std::size_t>(1, threads);
}

ThreadPool::~ThreadPool() {
  if (scheduler_ != nullptr) {
    // Match the real pool's shutdown contract: queued tasks still run
    // (FIFO — destruction is not a decision point) so no future is left
    // holding a broken promise.
    while (!queue_.empty()) {
      Queued task = std::move(queue_.front());
      queue_.pop_front();
      task.run();
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front().run);
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::drain() {
  if (scheduler_ == nullptr) return;
  while (!queue_.empty()) {
    testing::DecisionPoint point;
    point.point = "pool";
    point.ready.reserve(queue_.size());
    for (const Queued& task : queue_) {
      point.ready.push_back(testing::ReadyTask{task.id, "task #" + std::to_string(task.id)});
    }
    const std::size_t choice = scheduler_->pick(point);
    Queued task = std::move(queue_[choice]);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(choice));
    task.run();  // packaged_task: exceptions land in the future
  }
}

void ThreadPool::parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    futures.push_back(submit([&fn, i] { fn(i); }));
  }
  drain();
  // Wait for EVERY task before rethrowing: the tasks reference `fn` (and
  // whatever it captures), so bailing on the first failure would leave
  // later tasks running against dead references. Collecting all futures
  // first also makes propagation deterministic — the first failure in
  // submission order wins, not whichever worker lost the race.
  std::exception_ptr first;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (first == nullptr) first = std::current_exception();
    }
  }
  if (first != nullptr) std::rethrow_exception(first);
}

}  // namespace envnws

#include "common/thread_pool.h"

#include <atomic>
#include <memory>

#include "common/logging.h"

namespace lan {

namespace {
/// Which pool (if any) owns the current thread. Lets ParallelFor detect
/// a call made from inside one of its own tasks and degrade to inline
/// execution instead of deadlocking on its own queue.
thread_local const ThreadPool* current_worker_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  LAN_CHECK_GT(num_threads, 0u);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    LAN_CHECK(!shutting_down_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  current_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutting down
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // Inline when parallelism cannot help (1-thread pool, single iteration)
  // or must not be attempted (we are already on one of this pool's
  // workers, where blocking on our own queue would deadlock).
  if (current_worker_pool == this || workers_.size() <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // The caller waits for the n iterations, not for its helper tasks to be
  // scheduled: helpers queue behind whatever else runs on the pool (a
  // SearchBatch, another writer's loop), and waiting for them to start
  // would tie this loop's latency to that unrelated work. So the loop's
  // state lives on the heap, shared with the helpers; one that starts
  // after every iteration was claimed finds nothing left, never touches
  // `fn`, and only drops its reference.
  struct Loop {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;  // finished iterations, guarded by mu
  };
  const auto loop = std::make_shared<Loop>();
  const auto drain = [n](Loop* l, const std::function<void(size_t)>* f) {
    size_t count = 0;
    for (;;) {
      const size_t i = l->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      (*f)(i);
      ++count;
    }
    if (count == 0) return;
    std::lock_guard<std::mutex> lock(l->mu);
    l->done += count;
    if (l->done == n) l->cv.notify_one();
  };
  const size_t helpers = std::min(workers_.size(), n - 1);
  for (size_t t = 0; t < helpers; ++t) {
    Submit([loop, drain, f = &fn] { drain(loop.get(), f); });
  }
  drain(loop.get(), &fn);  // the calling thread is one of the shards
  std::unique_lock<std::mutex> lock(loop->mu);
  loop->cv.wait(lock, [&loop, n] { return loop->done == n; });
}

void ThreadPool::ParallelFor(size_t n, size_t num_threads,
                             const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  num_threads = std::min(num_threads, n);
  if (num_threads <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        fn(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

size_t DefaultThreadCount() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<size_t>(hc);
}

}  // namespace lan

#ifndef LAN_COMMON_THREAD_POOL_H_
#define LAN_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace lan {

/// \brief Fixed-size worker pool used for offline work (PG construction,
/// ground-truth computation, model training data generation).
///
/// Query-time code paths are single-threaded on purpose: QPS in the paper is
/// a per-query latency measure.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns immediately.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n) on the pool's workers and returns once all
  /// iterations finish; the calling thread drains iterations too, so no
  /// capacity is wasted on a blocked parent. Reuses pool workers instead of
  /// spawning threads per call (the static overload's cost). It waits only
  /// for its own iterations, never for other tasks sharing the pool, so
  /// concurrent loops (an Insert beside a SearchBatch) do not wait on each
  /// other. Safe to call from inside a pool task: that is detected via a
  /// thread-local and the loop runs inline, because a worker blocking on
  /// its own pool's queue would deadlock.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Convenience: runs fn(i) for i in [0, n) and waits. Spawns transient
  /// threads per call — prefer the instance method when a pool exists.
  static void ParallelFor(size_t n, size_t num_threads,
                          const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

/// Number of hardware threads, at least 1.
size_t DefaultThreadCount();

}  // namespace lan

#endif  // LAN_COMMON_THREAD_POOL_H_

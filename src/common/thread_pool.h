// Fixed-size worker pool. Database recovery reads and replays its shards'
// WAL streams on it in parallel.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/queue.h"

namespace nagano {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueue a task. Returns false after Shutdown().
  bool Submit(std::function<void()> task);

  // Block until every task submitted so far has finished executing. A task
  // that throws still counts as finished (and as failed), so Wait() cannot
  // hang on an exceptional task.
  void Wait();

  // Stop accepting tasks, drain the queue (every task already submitted
  // still runs), join workers. Idempotent and safe to call from multiple
  // threads; called by the destructor.
  void Shutdown();

  uint64_t tasks_completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  // Tasks whose exception was swallowed by the worker loop.
  uint64_t tasks_failed() const {
    return failed_.load(std::memory_order_relaxed);
  }

 private:
  void WorkerLoop();

  BlockingQueue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex wait_mutex_;
  std::condition_variable wait_cv_;
  std::mutex shutdown_mutex_;  // serializes concurrent Shutdown() calls
};

}  // namespace nagano

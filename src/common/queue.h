// Bounded/unbounded MPMC blocking queue. Backbone of the thread pool.
#pragma once

#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>

namespace nagano {

template <typename T>
class BlockingQueue {
 public:
  explicit BlockingQueue(size_t capacity = std::numeric_limits<size_t>::max())
      : capacity_(capacity) {}

  // Blocks while full. Returns false if the queue was closed.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  // Non-blocking; returns false if full or closed.
  bool TryPush(T item) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  // Blocks while empty. Empty optional means closed-and-drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  // Non-blocking. Still drains remaining items after Close() — consumers
  // relying on drain-then-join shutdown (ThreadPool) keep popping until
  // the queue is actually empty.
  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  // No further pushes succeed; Pop() drains remaining items then returns
  // nullopt. Idempotent.
  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  size_t capacity_;
  bool closed_ = false;
};

}  // namespace nagano

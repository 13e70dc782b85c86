/// \file thread_pool.hpp
/// Fixed-size worker pool with a blocking parallel_for. The experiment
/// harness runs the 40 simulation runs of each figure point concurrently;
/// each run owns a forked RNG stream so results are independent of the
/// worker count.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace moldsched {

class ThreadPool {
 public:
  /// Spawn `threads` workers (defaults to the hardware concurrency, at
  /// least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; the future reports completion and re-throws any
  /// exception the task raised.
  std::future<void> submit(std::function<void()> task);

  /// Pre-allocated fire-and-forget work item for `post`: the node embeds
  /// its own queue link, so posting performs no heap allocation — the
  /// primitive behind the async serving layer's shard strands, whose
  /// steady-state dispatch must not allocate per batch. Contract: the node
  /// must outlive its run() call and must not be re-posted while still
  /// queued; the worker unlinks the node *before* calling run(), so run()
  /// itself may re-post the node (the strand re-arm pattern). run() must
  /// not throw — there is no future to carry the exception.
  class PostedTask {
   public:
    PostedTask() = default;
    virtual ~PostedTask() = default;
    PostedTask(const PostedTask&) = delete;
    PostedTask& operator=(const PostedTask&) = delete;

    virtual void run() noexcept = 0;

   private:
    friend class ThreadPool;
    PostedTask* next_ = nullptr;
  };

  /// Allocation-free fire-and-forget submission: link `task` into the
  /// intrusive FIFO and wake one worker. No completion handle — callers
  /// that need one use submit().
  void post(PostedTask& task);

  /// Run f(i) for i in [begin, end) across the pool and wait. Exceptions
  /// from the body are collected and the first one re-thrown.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& f);

  /// Like parallel_for, but the body also receives a stable slot index in
  /// [0, min(size(), end - begin, max_strands)): two concurrent invocations
  /// never share a slot, so callers can hand each strand its own reusable
  /// workspace. `max_strands` == 0 means "as many as the pool has". Called
  /// from a pool worker thread (of any pool), the loop runs inline on the
  /// caller with slot 0 instead of blocking on pool work — nested parallel
  /// stages degrade to sequential rather than deadlocking.
  void parallel_for_slots(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t slot, std::size_t i)>& f,
      std::size_t max_strands = 0);

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// True when the calling thread is a worker of ANY ThreadPool. Blocking
  /// on pool work from inside a pool worker can deadlock; nested parallel
  /// stages use this to fall back to sequential execution instead.
  [[nodiscard]] static bool this_thread_is_worker() noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  PostedTask* posted_head_ = nullptr;
  PostedTask* posted_tail_ = nullptr;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Process-wide pool (hardware-concurrency workers), created on first use.
/// Used as the default executor for engine strands and for experiment
/// replicates when the caller does not supply a pool. Never
/// submit to this pool from inside one of its own tasks (the caller would
/// block a worker while waiting for workers).
[[nodiscard]] ThreadPool& shared_thread_pool();

}  // namespace moldsched

// Work-stealing thread pool shared by every parallel stage.
//
// The seed implementation spawned fresh std::threads for every parallel_for
// call; under the batch engine that means thousands of short-lived threads
// per scan. This pool is created once (ThreadPool::shared()), owns one
// worker and one deque per hardware thread, and serves both the engine's
// job scheduler and the data-parallel loops nested inside jobs. Owners pop
// their own deque LIFO (cache-warm), idle workers steal FIFO from the
// others, and blocked waiters help drain the pool instead of sleeping, so
// nested parallelism (a pool job running its own parallel_for) cannot
// deadlock even when every worker is busy.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace patchecko {

class TaskGroup;

class ThreadPool {
 public:
  /// `thread_count` 0 picks the hardware concurrency (at least 1).
  explicit ThreadPool(unsigned thread_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueues a task (round-robin across worker deques). Tasks must not
  /// throw; wrap them (TaskGroup does) if they can.
  void submit(std::function<void()> task);

  /// Steals and runs one pending task on the calling thread. Returns false
  /// when every deque is empty. This is what lets waiters "help": a thread
  /// blocked on a TaskGroup keeps executing pool work instead of holding a
  /// worker hostage.
  bool try_run_one();

  /// The process-wide pool, sized to the hardware. Constructed on first use.
  static ThreadPool& shared();

 private:
  friend class TaskGroup;

  /// A queued task and the group, if any, to notify once it has run.
  struct Task {
    std::function<void()> run;
    TaskGroup* group = nullptr;
  };

  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void enqueue(Task task);
  bool pop_task(std::size_t preferred, Task& out);
  void execute(Task& task);
  void worker_loop(std::size_t index);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex sleep_mutex_;
  std::condition_variable wake_;
  std::atomic<std::size_t> queued_{0};
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<bool> stop_{false};
};

/// A joinable batch of tasks on a pool. run() may be called from any thread
/// — including from inside a task of the same group, as long as that task
/// has not finished (the engine's scheduler submits dependents this way);
/// wait() blocks until every task finished, helping the pool while it
/// waits, and rethrows the exception of the *lowest submission index* that
/// failed — a deterministic choice regardless of which worker happened to
/// fault first on the clock.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool = ThreadPool::shared()) : pool_(pool) {}
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void run(std::function<void()> task);
  void wait();

 private:
  friend class ThreadPool;  // calls finish_one() after counting a task done

  void finish_one();

  ThreadPool& pool_;
  std::atomic<std::size_t> remaining_{0};
  std::atomic<std::size_t> submitted_{0};
  std::mutex mutex_;
  std::condition_variable done_;
  std::exception_ptr error_;
  std::size_t error_index_ = static_cast<std::size_t>(-1);
};

}  // namespace patchecko

#include "ptsbe/core/trajectory_executor.hpp"

#include <algorithm>
#include <utility>

#include "ptsbe/common/error.hpp"

namespace ptsbe::be {

/// The team a worker installs for its thread.
struct TrajectoryExecutor::WorkerTeam final : ForkJoin {
  WorkerTeam(TrajectoryExecutor& executor, std::size_t worker) noexcept
      : executor(executor), worker(worker) {}
  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;
  void fork(std::uint64_t count, RangeBody body) override {
    executor.fork(worker, count, body);
  }
  TrajectoryExecutor& executor;
  const std::size_t worker;
};

/// One fork's state, shared by the caller and its helpers. `body` lives on
/// the caller's stack: it runs only for a claimed range, and the caller
/// returns only once every claimed range is done.
struct TrajectoryExecutor::ForkJob {
  /// Claim and run ranges until none is left, with the thread's team slot
  /// cleared so that a range never forks. After a range has thrown, the
  /// rest are claimed and counted but not run.
  void run() noexcept {
    ForkJoin* const team = std::exchange(thread_team(), nullptr);
    for (std::uint64_t i;
         (i = next.fetch_add(1, std::memory_order_relaxed)) < count;) {
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          body(i);
        } catch (...) {
          if (!failed.exchange(true, std::memory_order_relaxed))
            error = std::current_exception();
        }
      }
      // acq_rel: the caller's acquire of the final count sees every range's
      // writes, the error included.
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == count)
        done.notify_all();
    }
    thread_team() = team;
  }

  const std::uint64_t count;
  const RangeBody body;
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> done{0};
  std::atomic<bool> failed{false};
  /// Written once, by the range that set `failed`.
  std::exception_ptr error{};
};

std::size_t resolved_threads(const Options& options) noexcept {
  if (options.threads != 0) return options.threads;
  return std::max(std::thread::hardware_concurrency(), 1u);
}

TrajectoryExecutor::TrajectoryExecutor(std::size_t num_workers) {
  const std::size_t count = std::max<std::size_t>(1, num_workers);
  queues_.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    queues_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(count);
  // Threads start in drain(): seeding finishes before any task runs, which
  // is what makes single-worker execution order deterministic.
}

TrajectoryExecutor::~TrajectoryExecutor() {
  // drain() already joined on the normal path; this covers a drain that was
  // never reached (e.g. an exception while seeding).
  stop_.store(true, std::memory_order_release);
  bump_events();
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
  for (CompletedNode* node = completed_.exchange(nullptr);
       node != nullptr;) {
    CompletedNode* next = node->next;
    delete node;
    node = next;
  }
}

void TrajectoryExecutor::spawn(WorkerTask task) {
  spawn_from(seed_cursor_++ % queues_.size(), std::move(task));
}

void TrajectoryExecutor::spawn_from(std::size_t worker, WorkerTask task) {
  PTSBE_REQUIRE(static_cast<bool>(task), "cannot spawn an empty task");
  PTSBE_REQUIRE(worker < queues_.size(), "spawn_from: bad worker id");
  pending_.fetch_add(1, std::memory_order_acq_rel);
  try {
    WorkerQueue& queue = *queues_[worker];
    MutexLock lock(queue.mutex);
    queue.tasks.push_back(std::move(task));
  } catch (...) {
    finish_task();  // a task that was never queued must not hold up drain
    throw;
  }
  bump_events();
}

void TrajectoryExecutor::fork(std::size_t self, std::uint64_t count,
                              RangeBody body) {
  const std::size_t helpers = std::min<std::uint64_t>(
      {count - 1, queues_.size() - 1, idle_.load(std::memory_order_relaxed)});
  std::shared_ptr<ForkJob> shared;
  if (helpers != 0) {
    try {
      shared = std::make_shared<ForkJob>(count, body);
      for (std::size_t h = 0; h < helpers; ++h)
        spawn_from(self, [shared](std::size_t) { shared->run(); });
    } catch (...) {
      // Out of memory: the caller claims whatever no helper was given.
    }
  }
  // Without helpers the job lives on this stack: no task, no allocation.
  ForkJob local(count, body);
  ForkJob& job = shared ? *shared : local;
  job.run();
  // Sleep until the ranges other workers claimed are done.
  for (std::uint64_t finished;
       (finished = job.done.load(std::memory_order_acquire)) != count;)
    job.done.wait(finished, std::memory_order_acquire);
  if (job.error) std::rethrow_exception(job.error);
}

void TrajectoryExecutor::emit(TrajectoryBatch&& batch) {
  // Backpressure: with the drain loop more than the bound behind, wait for
  // it to consume a round before producing more. The bound is soft (racing
  // workers may overshoot by a few batches) — what matters is that the
  // undelivered set stays O(workers), not O(corpus). Cancellation releases
  // waiters: the drain loop keeps consuming (and dropping) regardless.
  const std::size_t limit = kMaxQueuedPerWorker * queues_.size();
  while (!cancelled()) {
    const std::uint64_t seen = drained_epoch_.load(std::memory_order_acquire);
    if (queued_.load(std::memory_order_acquire) < limit) break;
    drained_epoch_.wait(seen, std::memory_order_acquire);
  }
  queued_.fetch_add(1, std::memory_order_acq_rel);
  auto* node = new CompletedNode{std::move(batch), nullptr};
  node->next = completed_.load(std::memory_order_relaxed);
  while (!completed_.compare_exchange_weak(node->next, node,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
  }
  bump_events();
}

void TrajectoryExecutor::cancel() noexcept {
  cancelled_.store(true, std::memory_order_release);
  // Release emit() backpressure waiters so cancelled tasks finish fast.
  drained_epoch_.fetch_add(1, std::memory_order_release);
  drained_epoch_.notify_all();
}

void TrajectoryExecutor::report_error(std::exception_ptr error) noexcept {
  {
    MutexLock lock(error_mutex_);
    if (!task_error_) task_error_ = std::move(error);
  }
  cancel();
}

void TrajectoryExecutor::bump_events() noexcept {
  events_.fetch_add(1, std::memory_order_release);
  events_.notify_all();
}

WorkerTask TrajectoryExecutor::try_pop(std::size_t self) {
  {
    // Own deque, newest first: a DFS worker stays on the subtree it just
    // forked, so live state snapshots track the current path, not the
    // whole frontier.
    WorkerQueue& own = *queues_[self];
    MutexLock lock(own.mutex);
    if (!own.tasks.empty()) {
      WorkerTask task = std::move(own.tasks.back());
      own.tasks.pop_back();
      return task;
    }
  }
  // Steal oldest from a victim: the shallowest pending subtree is the
  // biggest chunk of work available.
  for (std::size_t offset = 1; offset < queues_.size(); ++offset) {
    WorkerQueue& victim = *queues_[(self + offset) % queues_.size()];
    MutexLock lock(victim.mutex);
    if (!victim.tasks.empty()) {
      WorkerTask task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      return task;
    }
  }
  return {};
}

void TrajectoryExecutor::finish_task() {
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) bump_events();
}

void TrajectoryExecutor::worker_loop(std::size_t self) {
  WorkerTeam team(*this, self);
  thread_team() = &team;
  while (true) {
    if (WorkerTask task = try_pop(self)) {
      try {
        task(self);
      } catch (...) {
        report_error(std::current_exception());
      }
      finish_task();
      continue;
    }
    const std::uint64_t seen = events_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_acquire)) return;
    if (WorkerTask task = try_pop(self)) {
      try {
        task(self);
      } catch (...) {
        report_error(std::current_exception());
      }
      finish_task();
      continue;
    }
    idle_.fetch_add(1, std::memory_order_relaxed);
    events_.wait(seen, std::memory_order_acquire);
    idle_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void TrajectoryExecutor::drain_completed(
    const std::function<void(TrajectoryBatch&&)>& deliver,
    std::exception_ptr& delivery_error) {
  CompletedNode* list = completed_.exchange(nullptr, std::memory_order_acquire);
  if (list == nullptr) return;
  // The Treiber stack pops newest-first; reverse to restore push order
  // (with one worker that is exactly spec completion order).
  CompletedNode* ordered = nullptr;
  while (list != nullptr) {
    CompletedNode* next = list->next;
    list->next = ordered;
    ordered = list;
    list = next;
  }
  std::size_t consumed = 0;
  while (ordered != nullptr) {
    CompletedNode* next = ordered->next;
    if (!delivery_error) {
      try {
        deliver(std::move(ordered->batch));
      } catch (...) {
        // First delivery failure cancels the run; in-flight trajectories
        // complete and their batches are dropped below.
        delivery_error = std::current_exception();
        cancel();
      }
    }
    delete ordered;
    ordered = next;
    ++consumed;
  }
  queued_.fetch_sub(consumed, std::memory_order_acq_rel);
  // Wake emit() backpressure waiters: capacity just freed up.
  drained_epoch_.fetch_add(1, std::memory_order_release);
  drained_epoch_.notify_all();
}

void TrajectoryExecutor::drain(
    const std::function<void(TrajectoryBatch&&)>& deliver) {
  PTSBE_REQUIRE(workers_.empty(), "drain() may only be called once");
  std::exception_ptr delivery_error;
  if (pending_.load(std::memory_order_acquire) != 0) {
    for (std::size_t i = 0; i < queues_.size(); ++i)
      workers_.emplace_back([this, i] { worker_loop(i); });
    while (true) {
      drain_completed(deliver, delivery_error);
      const std::uint64_t seen = events_.load(std::memory_order_acquire);
      if (pending_.load(std::memory_order_acquire) == 0 &&
          completed_.load(std::memory_order_acquire) == nullptr)
        break;
      if (completed_.load(std::memory_order_acquire) != nullptr) continue;
      events_.wait(seen, std::memory_order_acquire);
    }
    stop_.store(true, std::memory_order_release);
    bump_events();
    for (std::thread& worker : workers_) worker.join();
    // Workers may have emitted between the last drain and their exit.
    drain_completed(deliver, delivery_error);
  }
  if (delivery_error) std::rethrow_exception(delivery_error);
  MutexLock lock(error_mutex_);
  if (task_error_) std::rethrow_exception(task_error_);
}

}  // namespace ptsbe::be

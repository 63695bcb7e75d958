#pragma once

/// \file trajectory_executor.hpp
/// \brief Work-stealing multi-threaded trajectory executor.
///
/// Batched Execution's unit of work is one task: one spec's preparation
/// under the independent schedule, one trie subtree under the shared-prefix
/// schedule, one of the chunks a large leaf splits its bulk draw into, or a
/// fork's helper. This executor runs
/// those units across `be::Options::threads` worker threads with classic
/// work-stealing scheduling: every worker owns a deque, pops its own newest
/// task (LIFO — keeps a DFS worker on its current subtree and bounds the
/// number of live state snapshots), and steals the *oldest* task of a victim
/// when it runs dry (the shallowest, therefore largest, pending subtree).
///
/// Determinism contract: the executor adds no randomness, so any task
/// placement yields bit-identical records — preparation consumes no
/// randomness at all and each spec samples from its own Philox substream.
/// A spec's preparation may split into position-addressed ranges
/// (ptsbe/common/parallel.hpp), and so may its bulk draw: each sampling
/// chunk regenerates a fixed, position-addressed slice of the spec's
/// substream, and in whichever chunk finishes last the prefix sum runs
/// once, sequentially, before the division and the bin walk split into
/// ranges that each resume the sequential walk's state
/// (ptsbe/core/leaf_sampler.hpp). Only completion *order* depends on
/// scheduling.
///
/// Thread model:
///  - `spawn` seeds work before `drain` (caller thread) or adds work from
///    inside a running task via `spawn_from(worker, …)`.
///  - Every worker installs its fork-join team for its thread, so
///    `ptsbe::parallel_for` inside a task splits across this executor: the
///    caller pushes a helper task per idle worker (at most
///    `num_workers() − 1`) onto its own deque, helpers and caller claim
///    ranges from one atomic counter, and the caller then sleeps until the
///    ranges others claimed are done. With no idle worker, or inside a
///    range, the caller runs every range: no task, no allocation. Helpers
///    own the fork's state, so one that runs after the call returned finds
///    no range left.
///  - Workers hand completed batches to `emit` — a lock-free Treiber-stack
///    push. A worker never waits on the sink call itself; only when the
///    drain loop has fallen a bounded number of batches behind does `emit`
///    apply backpressure, which is what keeps streaming exports
///    bounded-memory under a slow sink.
///  - `drain` runs on the calling thread: it starts the workers, pops
///    completed batches, invokes the delivery callback **only on the calling
///    thread** (sinks therefore need no locking and may even be
///    thread-hostile), and joins the workers before returning. The join
///    gives the caller a full happens-before edge over everything the
///    workers wrote (per-worker accounting included).
///
/// Errors: the first exception thrown by a task — or by the delivery
/// callback — cancels the run (`cancelled()` flips; tasks are expected to
/// poll it and return early, skipping work *before* the expensive
/// preparation), the remaining queue drains with batches dropped, the
/// workers are joined, and the exception is rethrown from `drain`. A
/// delivery-callback exception takes precedence over later task errors.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "ptsbe/common/parallel.hpp"
#include "ptsbe/common/thread_annotations.hpp"
#include "ptsbe/core/batched_execution.hpp"

namespace ptsbe::be {

/// Move-only type-erased task. `std::function` requires copyable targets,
/// but trajectory tasks own move-only `SimState` snapshots — this is the
/// minimal replacement (C++23's `std::move_only_function` of `void(size_t)`).
class WorkerTask {
 public:
  WorkerTask() = default;

  template <typename F>
  WorkerTask(F fn)  // NOLINT(google-explicit-constructor): function-like
      : impl_(std::make_unique<Model<F>>(std::move(fn))) {}

  WorkerTask(WorkerTask&&) noexcept = default;
  WorkerTask& operator=(WorkerTask&&) noexcept = default;

  explicit operator bool() const noexcept { return impl_ != nullptr; }

  /// Run the task on `worker` (the id of the executing worker thread).
  void operator()(std::size_t worker) { impl_->call(worker); }

 private:
  struct Concept {
    virtual ~Concept() = default;
    virtual void call(std::size_t worker) = 0;
  };
  template <typename F>
  struct Model final : Concept {
    explicit Model(F fn) : fn_(std::move(fn)) {}
    void call(std::size_t worker) override { fn_(worker); }
    F fn_;
  };
  std::unique_ptr<Concept> impl_;
};

/// Resolve `Options::threads` to a concrete worker count: 0 means hardware
/// concurrency (at least 1), otherwise `threads`.
[[nodiscard]] std::size_t resolved_threads(const Options& options) noexcept;

/// The work-stealing pool plus the lock-free completion queue. One instance
/// executes one batch of trajectories: seed with `spawn`, then `drain`.
class TrajectoryExecutor {
 public:
  explicit TrajectoryExecutor(std::size_t num_workers);
  TrajectoryExecutor(const TrajectoryExecutor&) = delete;
  TrajectoryExecutor& operator=(const TrajectoryExecutor&) = delete;
  ~TrajectoryExecutor();

  /// Worker threads this executor runs (>= 1). Valid from construction —
  /// the threads themselves only start when `drain` begins.
  [[nodiscard]] std::size_t num_workers() const noexcept {
    return queues_.size();
  }

  /// Seed a task from the calling thread (before `drain`); tasks are
  /// distributed round-robin across the worker deques. Workers pop their
  /// own deque newest-first, so seed in reverse when a single worker should
  /// execute in a specific order.
  void spawn(WorkerTask task);

  /// Add a task from inside a running task: pushed onto `worker`'s own
  /// deque (newest — the spawning worker keeps locality; idle workers
  /// steal it from the other end).
  void spawn_from(std::size_t worker, WorkerTask task);

  /// Max completed-but-undelivered batches per worker before `emit`
  /// applies backpressure. Bounds the completion queue at
  /// kMaxQueuedPerWorker × num_workers batches, which is what keeps
  /// streaming exports bounded-memory even when the sink is slower than
  /// the workers.
  static constexpr std::size_t kMaxQueuedPerWorker = 4;

  /// Worker-side: hand a completed batch to the drain loop. The push is
  /// lock-free (one CAS); when the drain loop has fallen more than the
  /// queue bound behind, the worker waits for it to catch up
  /// (backpressure) — it never waits on the sink call itself, and
  /// cancellation releases any waiter.
  void emit(TrajectoryBatch&& batch);

  /// True once a task or the delivery callback has thrown (or `cancel` was
  /// called). Tasks poll this to skip pending work before preparation.
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Request cancellation: pending tasks still run but are expected to
  /// return immediately; emit() backpressure waiters are released.
  void cancel() noexcept;

  /// Record a task failure (first one wins) and cancel the run. Called by
  /// task bodies that must not let exceptions escape onto a worker thread.
  void report_error(std::exception_ptr error) noexcept;

  /// Run the batch to completion on the calling thread: start the workers,
  /// deliver every emitted batch to `deliver` (calling-thread only, in
  /// per-worker completion order), join the workers, then rethrow the first
  /// delivery or task error. After `drain` returns the executor is spent.
  void drain(const std::function<void(TrajectoryBatch&&)>& deliver);

 private:
  struct CompletedNode {
    TrajectoryBatch batch;
    CompletedNode* next = nullptr;
  };
  /// One worker's deque. A plain mutex-guarded deque: the owner and thieves
  /// touch it for nanoseconds compared to a state preparation, so a
  /// Chase-Lev structure would buy nothing here.
  struct WorkerQueue {
    Mutex mutex;
    std::deque<WorkerTask> tasks PTSBE_GUARDED_BY(mutex);
  };
  struct WorkerTeam;
  struct ForkJob;

  /// `parallel_for` on worker `self`: the fork-join primitive.
  void fork(std::size_t self, std::uint64_t count, RangeBody body);
  void worker_loop(std::size_t self);
  [[nodiscard]] WorkerTask try_pop(std::size_t self);
  void finish_task();
  void bump_events() noexcept;
  void drain_completed(const std::function<void(TrajectoryBatch&&)>& deliver,
                       std::exception_ptr& delivery_error);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::size_t seed_cursor_ = 0;

  /// Tasks spawned but not yet finished. Incremented *before* the push so
  /// the drain loop can never observe an empty pool with a task in flight.
  std::atomic<std::size_t> pending_{0};
  /// Event version counter: bumped (with notify_all) on every spawn, every
  /// emit, on pending_ reaching zero and on stop — the single futex both
  /// idle workers and the drain loop sleep on.
  std::atomic<std::uint64_t> events_{0};
  /// Workers asleep on `events_`: the helpers a fork may wake.
  std::atomic<std::size_t> idle_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> cancelled_{false};
  std::atomic<CompletedNode*> completed_{nullptr};
  /// Completed-but-undelivered batches (emit backpressure accounting).
  std::atomic<std::size_t> queued_{0};
  /// Bumped (with notify_all) whenever the drain loop consumes a round of
  /// batches — the futex emit() waits on under backpressure.
  std::atomic<std::uint64_t> drained_epoch_{0};

  Mutex error_mutex_;
  std::exception_ptr task_error_ PTSBE_GUARDED_BY(error_mutex_);
};

}  // namespace ptsbe::be

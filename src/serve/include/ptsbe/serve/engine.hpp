#pragma once

/// \file engine.hpp
/// \brief `ptsbe::serve` — the async multi-tenant service engine.
///
/// Everything below the Pipeline facade is a blocking, single-tenant call:
/// one caller, one circuit, one run. The `Engine` is the ingestion boundary
/// that turns the PR 2–4 machinery (facade, prefix scheduler, work-stealing
/// executor) into something a fleet of clients can hit concurrently:
///
///  - **Jobs as data.** A `JobRequest` is a `.ptq` circuit (text, parsed by
///    `ptsbe::io`) plus registry-named strategy/backend/schedule config —
///    nothing in a request is code.
///  - **Shared worker pool.** One engine owns one fixed pool of job workers
///    (each job slot drives the BE trajectory executor with the job's own
///    `threads` knob; a job's preparation splits only across that
///    executor's workers, so total thread footprint is bounded by
///    workers × per-job threads).
///  - **ExecPlan cache.** Jobs are keyed by (canonical circuit text,
///    backend name, BackendConfig); repeat circuits skip the fusion +
///    lowering pass entirely by reusing the cached immutable plan. The
///    cache is a bounded LRU — hot tenants stay resident, one-off circuits
///    age out.
///  - **Admission control.** FIFO queue with a hard bound: `submit` on a
///    full queue *rejects with status* (`JobStatus::kRejected`) instead of
///    blocking the caller or buffering unboundedly — backpressure the
///    client can see.
///  - **Determinism.** A job's records (and dataset bytes) are bit-identical
///    to a standalone `Pipeline::run` with the same seed and config, no
///    matter how many other tenants are in flight — pinned by the serve
///    test suite's determinism matrix.
///
/// ```cpp
/// serve::Engine engine({.workers = 4, .queue_capacity = 64});
/// serve::JobRequest req;
/// req.circuit_text = ptq_source;
/// req.strategy = "band";  req.backend = "mps";  req.seed = 7;
/// serve::JobHandle job = engine.submit(std::move(req));
/// if (job.status() == serve::JobStatus::kRejected) { /* shed load */ }
/// const RunResult& run = job.wait();
/// ```

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ptsbe/common/thread_annotations.hpp"
#include "ptsbe/core/pipeline.hpp"
#include "ptsbe/serve/plan_cache.hpp"
#include "ptsbe/stats/shot_table.hpp"

namespace ptsbe::serve {

/// Admission lane of a job. The engine drains the high lane first (FIFO
/// within each lane); both lanes share one admission capacity, so priority
/// reorders the queue but never grows it.
enum class Priority : std::uint8_t {
  kNormal = 0,  ///< Default lane.
  kHigh = 1,    ///< Drained before every normal-lane job.
};

/// Registry-style name for a priority ("normal" | "high").
[[nodiscard]] const std::string& to_string(Priority priority);
/// \throws precondition_error for unknown names (the message lists both).
[[nodiscard]] Priority priority_from_string(const std::string& name);

/// One unit of tenant work: a circuit as data plus the full pipeline
/// configuration, all registry-named. Invalid requests (malformed `.ptq`,
/// unknown registry names) fail at submit() with `JobStatus::kFailed` and
/// a diagnostic in `JobHandle::error()` — they never throw on, or reach,
/// the worker pool.
struct JobRequest {
  /// `.ptq` source of the noisy program to run (see ptsbe/io/ptq.hpp).
  std::string circuit_text;
  /// Diagnostic label used in ParseError messages ("tenant-42.ptq", …).
  std::string source_name;
  /// PTS strategy registry name + config (shot budgets live here).
  std::string strategy = "probabilistic";
  pts::StrategyConfig strategy_config;
  /// Simulator backend registry name + tuning knobs.
  std::string backend = "statevector";
  BackendConfig backend_config;
  /// Trajectory schedule for the BE stage.
  be::Schedule schedule = be::Schedule::kIndependent;
  /// Worker threads *within* this job's BE stage, the only threads it runs
  /// on: they take its specs and split a preparation's sweeps while some
  /// of them are idle (0 = hardware concurrency; values above hardware
  /// concurrency are clamped at submit — tenant input must not size OS
  /// thread pools unboundedly). Records are bit-identical at every value.
  std::size_t threads = 1;
  /// Master seed; with everything above it pins the job's records exactly.
  std::uint64_t seed = 0x5EEDBA5EDULL;
  /// Tenant this job is accounted to: per-tenant quotas, counters and the
  /// queue-depth high-water mark are keyed by this label. The label is
  /// client-asserted (authentication is out of scope at this layer).
  std::string tenant = "anonymous";
  /// Admission lane (see Priority). Both lanes share the engine's bounded
  /// queue; high-priority jobs are dispatched first.
  Priority priority = Priority::kNormal;
  /// Optional streaming delivery: when set, the engine worker executes the
  /// job through `Pipeline::run_streaming` and invokes this sink — on the
  /// worker's thread, one batch at a time, in completion order — instead of
  /// materialising batches into the job's RunResult (which then carries
  /// metadata only: weighting, names, schedules, num_specs). Batches are
  /// bit-identical to the materialised path; only the delivery order can
  /// differ (recover spec order via TrajectoryBatch::spec_index). An
  /// exception thrown by the sink fails the job (kFailed). This is the
  /// `ptsbe::net` result-frame hook.
  be::BatchSink stream_sink;
};

/// Lifecycle of a submitted job. Terminal states: kDone, kFailed,
/// kCancelled, kRejected.
enum class JobStatus : std::uint8_t {
  kQueued,     ///< Admitted, waiting for a worker.
  kRunning,    ///< A worker is executing it.
  kDone,       ///< Finished; JobHandle::result() is valid.
  kFailed,     ///< Invalid request or execution error; see error().
  kCancelled,  ///< cancel() won the race before a worker picked it up.
  kRejected,   ///< Admission refused (queue full / engine shut down).
};

/// Registry-style name for a status ("queued", "running", "done",
/// "failed", "cancelled", "rejected").
[[nodiscard]] const std::string& to_string(JobStatus status);

/// Why a kRejected job was refused — the distinct-status signal a client
/// (and the `ptsbe::net` wire protocol) can react to: back off on
/// kQueueFull, shed this tenant's load on kTenantQuota, fail over to
/// another shard on kShutdown.
enum class RejectReason : std::uint8_t {
  kNone = 0,     ///< Not rejected.
  kQueueFull,    ///< Bounded FIFO at capacity (backpressure).
  kTenantQuota,  ///< The tenant's outstanding-job quota is exhausted.
  kShutdown,     ///< Engine is draining; no new admissions.
};

/// Registry-style name for a reason ("none", "queue-full", "tenant-quota",
/// "shutdown").
[[nodiscard]] const std::string& to_string(RejectReason reason);

namespace detail {
struct JobState;
struct Counters;
}  // namespace detail

/// Future-style handle to one submitted job. Copyable (all copies share
/// the job); thread-safe.
class JobHandle {
 public:
  /// Engine-assigned submission id (FIFO order of admission attempts).
  [[nodiscard]] std::uint64_t id() const noexcept;

  /// Current status (non-blocking snapshot).
  [[nodiscard]] JobStatus status() const;

  /// True once the job reached a terminal state (non-blocking).
  [[nodiscard]] bool poll() const;

  /// Block until terminal, then return the run result.
  /// \throws runtime_failure for kFailed/kCancelled/kRejected jobs (the
  ///         message carries error()).
  const RunResult& wait() const;

  /// The run result of a kDone job (call after wait()/poll()).
  /// \throws precondition_error when the job is not kDone.
  [[nodiscard]] const RunResult& result() const;

  /// Diagnostic for kFailed/kRejected jobs; empty otherwise.
  [[nodiscard]] std::string error() const;

  /// Why a kRejected job was refused (kNone for every other status).
  [[nodiscard]] RejectReason reject_reason() const;

  /// Request cancellation. Only a still-queued job can be cancelled (a
  /// running job completes normally — trajectory execution is not
  /// interruptible mid-flight). Returns true when this call moved the job
  /// to kCancelled; the queue slot it held is reclaimed by the engine's
  /// next admission check.
  bool cancel();

  /// True when this job's plan came from the engine's ExecPlan cache
  /// (diagnostics; meaningful once the job left kQueued).
  [[nodiscard]] bool plan_cache_hit() const;

 private:
  friend class Engine;
  explicit JobHandle(std::shared_ptr<detail::JobState> state);
  std::shared_ptr<detail::JobState> state_;
};

/// Engine sizing. Total worker-thread footprint is bounded by
/// `workers` × per-job `JobRequest::threads`: a job's preparation splits
/// only across its own executor's workers.
struct EngineConfig {
  /// Concurrent job slots (0 = hardware concurrency, at least 1).
  std::size_t workers = 1;
  /// Bounded FIFO admission queue; a submit beyond this depth is rejected
  /// with status. Must be >= 1.
  std::size_t queue_capacity = 64;
  /// Bounded LRU of fused ExecPlans keyed by (circuit, backend, config).
  /// 0 disables caching. Plans are shared immutable objects, so a cached
  /// plan can serve many concurrent jobs at once.
  std::size_t plan_cache_capacity = 32;
  /// Default per-tenant quota: the maximum number of *outstanding* jobs
  /// (admitted and not yet terminal — queued or running) any one tenant may
  /// hold. A submit beyond it is kRejected with RejectReason::kTenantQuota.
  /// 0 = unlimited. One tenant can therefore never occupy the whole bounded
  /// queue — the fairness half of admission control.
  std::size_t tenant_quota = 0;
  /// Per-tenant overrides of `tenant_quota` (0 = unlimited for that
  /// tenant). Tenants not listed use the default.
  std::map<std::string, std::size_t> tenant_quota_overrides = {};
  /// Bound on the *distinct* measurement records each tenant's running
  /// `stats::ShotTable` aggregate may track (tenant circuits choose the
  /// record space, so an unbounded table would let one tenant grow engine
  /// memory without limit). Shots whose record is new once the bound is
  /// reached are counted in `TenantStats::shot_overflow` instead of
  /// tabulated. 0 disables aggregation entirely.
  std::size_t tenant_shot_table_capacity = 4096;
};

/// Per-tenant service counters (monotonic except queue_depth /
/// outstanding, which are instantaneous).
struct TenantStats {
  std::uint64_t admitted = 0;   ///< Jobs that entered the queue.
  std::uint64_t rejected = 0;   ///< Admission refusals (any reason).
  std::uint64_t completed = 0;  ///< Jobs finished kDone.
  std::uint64_t failed = 0;     ///< Invalid requests + execution errors.
  std::uint64_t cancelled = 0;  ///< Cancelled while queued.
  std::size_t queue_depth = 0;  ///< Jobs admitted but not yet running.
  std::size_t queue_high_water = 0;  ///< Max queue_depth ever observed.
  std::size_t outstanding = 0;  ///< Queued + running (what quotas bound).
  /// Running record histogram over this tenant's shots — tabulated on
  /// completion for materialised jobs, per delivered batch for streaming
  /// jobs — bounded by `EngineConfig::tenant_shot_table_capacity` distinct
  /// records.
  stats::ShotTable shots;
  /// Shots dropped from `shots` because the distinct-record bound was
  /// reached (their record was new; existing records always accumulate).
  std::uint64_t shot_overflow = 0;
};

/// Aggregate service counters (monotonic since construction except
/// queue_depth, which is instantaneous).
struct EngineStats {
  std::uint64_t submitted = 0;   ///< submit() calls, admitted or not.
  std::uint64_t served = 0;      ///< Jobs finished kDone.
  std::uint64_t failed = 0;      ///< Invalid requests + execution errors.
  std::uint64_t cancelled = 0;   ///< Cancelled while queued.
  std::uint64_t rejected = 0;    ///< Admission refusals (backpressure).
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
  std::size_t queue_depth = 0;   ///< Jobs admitted but not yet running.
  /// Per-tenant breakdown, keyed by JobRequest::tenant (ordered so JSON
  /// emission is deterministic).
  std::map<std::string, TenantStats> tenants;

  /// Hits over lookups (0 when no lookups happened).
  [[nodiscard]] double plan_cache_hit_rate() const noexcept {
    const std::uint64_t lookups = plan_cache_hits + plan_cache_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(plan_cache_hits) /
                              static_cast<double>(lookups);
  }
};

/// Serialise stats as one JSON object (aggregate counters plus a "tenants"
/// object keyed by tenant label) — what the `ptsbe_netd` STATS frame
/// replies with. Tenant labels are JSON-escaped; output is deterministic
/// (tenants in lexicographic order).
[[nodiscard]] std::string stats_to_json(const EngineStats& stats);

/// The multi-tenant service engine. Construction starts the worker pool;
/// destruction drains it: already-admitted jobs finish, new submissions
/// are rejected.
class Engine {
 public:
  explicit Engine(EngineConfig config = {});
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Validate, admit and enqueue one job. Never throws on bad tenant
  /// input: malformed circuits / unknown registry names return a handle
  /// already in kFailed, a full queue returns kRejected. Admission is
  /// checked *first*, so an overloaded engine sheds requests before paying
  /// for parsing or planning; validation and plan lookup then run on the
  /// caller's thread (keeping worker slots for execution).
  JobHandle submit(JobRequest request);

  /// Stop admitting (subsequent submits are kRejected), let every queued +
  /// running job finish, and join the worker pool. Also run by ~Engine.
  /// Not re-entrant from multiple threads at once.
  void shutdown();

  /// Snapshot of the service counters.
  [[nodiscard]] EngineStats stats() const;

  /// Job worker slots this engine runs.
  [[nodiscard]] std::size_t num_workers() const noexcept {
    return workers_.size();
  }

  /// True once shutdown() began: new submissions are kRejected with
  /// RejectReason::kShutdown while admitted jobs drain.
  [[nodiscard]] bool draining() const;

 private:
  void worker_loop() PTSBE_EXCLUDES(mutex_);
  void execute(const std::shared_ptr<detail::JobState>& job)
      PTSBE_EXCLUDES(mutex_);
  /// Drop cancelled (tombstone) jobs from both lanes so they stop counting
  /// against admission capacity.
  void purge_cancelled_locked() PTSBE_REQUIRES(mutex_);
  /// Queued jobs across both lanes.
  [[nodiscard]] std::size_t queued_locked() const noexcept
      PTSBE_REQUIRES(mutex_) {
    return queue_high_.size() + queue_normal_.size();
  }
  /// Effective outstanding-job quota for `tenant` (0 = unlimited).
  [[nodiscard]] std::size_t quota_for(const std::string& tenant) const;

  EngineConfig config_;
  PlanCache plan_cache_;

  /// Engine mutex — the *top* of the serve lock hierarchy
  /// (engine mutex_ → JobState::mutex → Counters::tenants_mutex; see
  /// docs/architecture.md). Never acquired while a job or tenant lock is
  /// held.
  mutable Mutex mutex_;
  std::condition_variable work_cv_;  ///< Workers sleep here.
  /// Two admission lanes sharing one capacity bound; workers drain
  /// queue_high_ first, FIFO within each lane.
  std::deque<std::shared_ptr<detail::JobState>> queue_high_
      PTSBE_GUARDED_BY(mutex_);
  std::deque<std::shared_ptr<detail::JobState>> queue_normal_
      PTSBE_GUARDED_BY(mutex_);
  bool stopping_ PTSBE_GUARDED_BY(mutex_) = false;
  std::uint64_t next_id_ PTSBE_GUARDED_BY(mutex_) = 0;

  /// Terminal-state counters live in a block shared with every JobState so
  /// a cancel() racing engine teardown never dereferences the engine.
  std::shared_ptr<detail::Counters> counters_;

  std::vector<std::thread> workers_;
};

}  // namespace ptsbe::serve

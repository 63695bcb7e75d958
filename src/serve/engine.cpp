#include "ptsbe/serve/engine.hpp"

#include <atomic>
#include <cstdio>
#include <optional>
#include <sstream>
#include <utility>

#include "ptsbe/common/error.hpp"
#include "ptsbe/common/record_runs.hpp"
#include "ptsbe/io/ptq.hpp"

namespace ptsbe::serve {

namespace detail {

/// Monotonic terminal-state counters, shared between the engine and every
/// job handle so late cancels never reach back into a dead engine. The
/// per-tenant map lives here for the same reason (cancel() must account
/// its tenant without an engine pointer); it is guarded by its own mutex,
/// which is always the innermost lock (after engine mutex_ and job mutex).
struct Counters {
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> cancelled{0};
  std::atomic<std::uint64_t> rejected{0};

  /// Innermost lock of the serve hierarchy (engine mutex_ ->
  /// JobState::mutex -> tenants_mutex): held only for counter updates,
  /// never while calling out.
  Mutex tenants_mutex;
  std::map<std::string, TenantStats> tenants PTSBE_GUARDED_BY(tenants_mutex);

  TenantStats& tenant_locked(const std::string& name)
      PTSBE_REQUIRES(tenants_mutex) {
    return tenants[name];
  }
};

/// Records in delivery order as (record, count) runs of equal adjacent
/// records. Built outside tenants_mutex, so the lock is held for one table
/// update per run rather than per record.
using RecordRuns = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

void append_runs(RecordRuns& runs, const std::vector<std::uint64_t>& records) {
  for_each_run(records, [&runs](std::uint64_t record, std::uint64_t count) {
    runs.emplace_back(record, count);
  });
}

/// Fold runs into a tenant's running ShotTable, spilling new records into
/// shot_overflow once the distinct-record bound is reached (existing
/// records always keep accumulating, so the tabulated subset stays exact).
/// A run takes the branch its first record would, and so would the rest,
/// so this equals applying the rule record by record; integer weights
/// below 2^53 add exactly. Caller holds tenants_mutex.
void tabulate_runs(TenantStats& t, const RecordRuns& runs,
                   std::size_t capacity) {
  for (const auto& [record, count] : runs) {
    if (t.shots.contains(record) || t.shots.distinct() < capacity)
      t.shots.add(record, static_cast<double>(count));
    else
      t.shot_overflow += count;
  }
}

/// Shared state behind one JobHandle. Transitions are guarded by `mutex`;
/// the request/program/plan fields are written once at submit time and
/// read-only afterwards.
struct JobState {
  std::uint64_t id = 0;
  JobRequest request;
  std::optional<NoisyCircuit> program;
  std::shared_ptr<const ExecPlan> plan;
  bool cache_hit = false;
  std::shared_ptr<Counters> counters;

  /// Middle tier of the serve hierarchy: may be acquired under the engine
  /// mutex_, and tenants_mutex may be acquired under it — never the
  /// reverse.
  mutable Mutex mutex;
  mutable std::condition_variable cv;
  JobStatus status PTSBE_GUARDED_BY(mutex) = JobStatus::kQueued;
  RejectReason reject_reason PTSBE_GUARDED_BY(mutex) = RejectReason::kNone;
  std::string error PTSBE_GUARDED_BY(mutex);
  RunResult result PTSBE_GUARDED_BY(mutex);

  void finish(JobStatus terminal, std::string message = {},
              RejectReason reason = RejectReason::kNone)
      PTSBE_EXCLUDES(mutex) {
    MutexLock lock(mutex);
    status = terminal;
    reject_reason = reason;
    error = std::move(message);
    cv.notify_all();
  }
};

}  // namespace detail

const std::string& to_string(JobStatus status) {
  static const std::string kNames[] = {"queued",    "running",   "done",
                                       "failed",    "cancelled", "rejected"};
  return kNames[static_cast<std::uint8_t>(status)];
}

const std::string& to_string(Priority priority) {
  static const std::string kNames[] = {"normal", "high"};
  return kNames[static_cast<std::uint8_t>(priority)];
}

Priority priority_from_string(const std::string& name) {
  if (name == "normal") return Priority::kNormal;
  if (name == "high") return Priority::kHigh;
  throw precondition_error("unknown priority '" + name +
                           "' (expected \"normal\" or \"high\")");
}

const std::string& to_string(RejectReason reason) {
  static const std::string kNames[] = {"none", "queue-full", "tenant-quota",
                                       "shutdown"};
  return kNames[static_cast<std::uint8_t>(reason)];
}

// ---------------------------------------------------------------------------
// JobHandle
// ---------------------------------------------------------------------------

JobHandle::JobHandle(std::shared_ptr<detail::JobState> state)
    : state_(std::move(state)) {}

std::uint64_t JobHandle::id() const noexcept { return state_->id; }

JobStatus JobHandle::status() const {
  MutexLock lock(state_->mutex);
  return state_->status;
}

bool JobHandle::poll() const {
  const JobStatus s = status();
  return s != JobStatus::kQueued && s != JobStatus::kRunning;
}

const RunResult& JobHandle::wait() const {
  MutexLock lock(state_->mutex);
  while (state_->status == JobStatus::kQueued ||
         state_->status == JobStatus::kRunning)
    state_->cv.wait(lock.native());
  if (state_->status != JobStatus::kDone)
    throw runtime_failure("job " + std::to_string(state_->id) + " " +
                          to_string(state_->status) +
                          (state_->error.empty() ? "" : ": " + state_->error));
  return state_->result;
}

const RunResult& JobHandle::result() const {
  MutexLock lock(state_->mutex);
  PTSBE_REQUIRE(state_->status == JobStatus::kDone,
                "job " + std::to_string(state_->id) + " is " +
                    to_string(state_->status) + ", not done");
  return state_->result;
}

std::string JobHandle::error() const {
  MutexLock lock(state_->mutex);
  return state_->error;
}

RejectReason JobHandle::reject_reason() const {
  MutexLock lock(state_->mutex);
  return state_->reject_reason;
}

bool JobHandle::cancel() {
  MutexLock lock(state_->mutex);
  if (state_->status != JobStatus::kQueued) return false;
  state_->status = JobStatus::kCancelled;
  state_->error = "cancelled before execution";
  state_->cv.notify_all();
  state_->counters->cancelled.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock tenants(state_->counters->tenants_mutex);
    TenantStats& t =
        state_->counters->tenant_locked(state_->request.tenant);
    ++t.cancelled;
    if (t.queue_depth > 0) --t.queue_depth;
    // `outstanding` stays until the tombstone leaves the queue (purge or
    // worker pop) — the slot is still held until then.
  }
  return true;
}

bool JobHandle::plan_cache_hit() const { return state_->cache_hit; }

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine(EngineConfig config)
    : config_(std::move(config)),
      plan_cache_(config_.plan_cache_capacity),
      counters_(std::make_shared<detail::Counters>()) {
  PTSBE_REQUIRE(config_.queue_capacity >= 1,
                "engine queue capacity must be at least 1");
  std::size_t workers = config_.workers;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

Engine::~Engine() { shutdown(); }

void Engine::shutdown() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
}

bool Engine::draining() const {
  MutexLock lock(mutex_);
  return stopping_;
}

std::size_t Engine::quota_for(const std::string& tenant) const {
  const auto it = config_.tenant_quota_overrides.find(tenant);
  return it != config_.tenant_quota_overrides.end() ? it->second
                                                    : config_.tenant_quota;
}

JobHandle Engine::submit(JobRequest request) {
  counters_->submitted.fetch_add(1, std::memory_order_relaxed);
  auto job = std::make_shared<detail::JobState>();
  job->counters = counters_;
  job->request = std::move(request);
  JobRequest& req = job->request;

  // Shared rejection path: counts globally and per tenant, then finishes
  // the job with the distinct reason a client can react to.
  const auto reject = [&](RejectReason reason,
                          const std::string& message) -> JobHandle {
    counters_->rejected.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock tenants(counters_->tenants_mutex);
      ++counters_->tenant_locked(req.tenant).rejected;
    }
    job->finish(JobStatus::kRejected, message, reason);
    return JobHandle(job);
  };
  const auto fail = [&](const std::string& message) -> JobHandle {
    counters_->failed.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock tenants(counters_->tenants_mutex);
      ++counters_->tenant_locked(req.tenant).failed;
    }
    job->finish(JobStatus::kFailed, message);
    return JobHandle(job);
  };

  // Admission pre-check: when the engine is stopping, the queue is already
  // full or the tenant is over quota, reject *before* parsing/planning —
  // backpressure must shed the expensive work too, and a doomed request
  // must not evict live plan-cache entries. (Re-checked at enqueue below:
  // concurrent submits that both pass here can still race the last slot.)
  {
    MutexLock lock(mutex_);
    job->id = next_id_++;
    purge_cancelled_locked();
    if (stopping_)
      return reject(RejectReason::kShutdown, "engine is shutting down");
    if (queued_locked() >= config_.queue_capacity)
      return reject(RejectReason::kQueueFull,
                    "admission queue full (" +
                        std::to_string(config_.queue_capacity) + " jobs)");
    const std::size_t quota = quota_for(req.tenant);
    if (quota > 0) {
      bool over_quota;
      {
        // reject() locks tenants_mutex itself, so the check must not still
        // hold it when rejecting.
        MutexLock tenants(counters_->tenants_mutex);
        over_quota = counters_->tenant_locked(req.tenant).outstanding >= quota;
      }
      if (over_quota)
        return reject(RejectReason::kTenantQuota,
                      "tenant '" + req.tenant + "' quota exhausted (" +
                          std::to_string(quota) + " outstanding jobs)");
    }
  }
  // Clamp tenant-controlled intra-job parallelism: "threads" feeds
  // TrajectoryExecutor's pool size verbatim (0 already means hardware
  // concurrency, and records are bit-identical at every value, so the
  // clamp is invisible except in wall clock).
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  if (req.threads > hw) req.threads = hw;

  // Validate tenant input on the caller's thread — bad requests fail with
  // status + diagnostic and never occupy a worker slot.
  std::string cache_insert_key;  // non-empty: insert after admission
  try {
    job->program.emplace(io::parse_circuit(req.circuit_text, req.source_name));
    if (!pts::StrategyRegistry::instance().contains(req.strategy))
      throw precondition_error("unknown strategy '" + req.strategy + "'");
    const BackendPtr backend = make_backend(req.backend, req.backend_config);
    PTSBE_REQUIRE(backend->supports(*job->program),
                  "backend '" + req.backend +
                      "' does not support this program (gate set, channel "
                      "class or qubit count)");
    // Plan cache: the canonical key makes formatting-only differences
    // between tenant texts collapse onto one entry.
    if (config_.plan_cache_capacity > 0) {
      const std::string key = plan_cache_key(io::write_circuit(*job->program),
                                             req.backend, req.backend_config);
      job->plan = plan_cache_.lookup(key);
      job->cache_hit = job->plan != nullptr;
      if (!job->plan) {
        job->plan =
            std::make_shared<const ExecPlan>(backend->make_plan(*job->program));
        // Deferred: only an *admitted* job may evict a live LRU entry — a
        // submit that loses the race for the last queue slot below must
        // leave the cache untouched.
        cache_insert_key = key;
      }
    }
  } catch (const std::exception& e) {
    return fail(e.what());
  }

  // FIFO admission (within each priority lane) with a hard shared bound: a
  // full queue, an exhausted tenant quota or a stopping engine rejects with
  // status — visible backpressure instead of hidden buffering.
  {
    MutexLock lock(mutex_);
    purge_cancelled_locked();
    if (stopping_)
      return reject(RejectReason::kShutdown, "engine is shutting down");
    if (queued_locked() >= config_.queue_capacity)
      return reject(RejectReason::kQueueFull,
                    "admission queue full (" +
                        std::to_string(config_.queue_capacity) + " jobs)");
    const std::size_t quota = quota_for(req.tenant);
    bool over_quota = false;
    {
      // Quota check and admission accounting are one atomic step, so two
      // racing submits can never both slip under the same quota. The
      // reject itself happens after the guard drops — reject() locks
      // tenants_mutex too.
      MutexLock tenants(counters_->tenants_mutex);
      TenantStats& t = counters_->tenant_locked(req.tenant);
      if (quota > 0 && t.outstanding >= quota) {
        over_quota = true;
      } else {
        ++t.admitted;
        ++t.outstanding;
        ++t.queue_depth;
        if (t.queue_depth > t.queue_high_water)
          t.queue_high_water = t.queue_depth;
      }
    }
    if (over_quota)
      return reject(RejectReason::kTenantQuota,
                    "tenant '" + req.tenant + "' quota exhausted (" +
                        std::to_string(quota) + " outstanding jobs)");
    (req.priority == Priority::kHigh ? queue_high_ : queue_normal_)
        .push_back(job);
  }
  if (!cache_insert_key.empty())
    plan_cache_.insert(cache_insert_key, job->plan);
  work_cv_.notify_one();
  return JobHandle(job);
}

void Engine::purge_cancelled_locked() {
  // Cancelled jobs are tombstones: cancel() (which holds only the job
  // mutex — handles must outlive engines) cannot touch the lanes, so the
  // admission checks sweep them out here. Lock order is engine mutex_ →
  // job mutex, consistent with every other path, and the lanes are
  // capacity-bounded so the sweep is O(queue_capacity).
  std::vector<std::string> freed;  // tenants whose slots were reclaimed
  const auto sweep = [&](std::deque<std::shared_ptr<detail::JobState>>& lane) {
    std::erase_if(lane, [&](const std::shared_ptr<detail::JobState>& job) {
      MutexLock job_lock(job->mutex);
      if (job->status != JobStatus::kCancelled) return false;
      freed.push_back(job->request.tenant);
      return true;
    });
  };
  sweep(queue_high_);
  sweep(queue_normal_);
  if (!freed.empty()) {
    MutexLock tenants(counters_->tenants_mutex);
    for (const std::string& tenant : freed) {
      TenantStats& t = counters_->tenant_locked(tenant);
      if (t.outstanding > 0) --t.outstanding;
    }
  }
}

void Engine::worker_loop() {
  while (true) {
    std::shared_ptr<detail::JobState> job;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queued_locked() == 0) work_cv_.wait(lock.native());
      if (queued_locked() == 0) return;  // stopping_ and drained
      // High lane first: priority reorders dispatch, never admission.
      std::deque<std::shared_ptr<detail::JobState>>& lane =
          queue_high_.empty() ? queue_normal_ : queue_high_;
      job = std::move(lane.front());
      lane.pop_front();
    }
    execute(job);
  }
}

void Engine::execute(const std::shared_ptr<detail::JobState>& job) {
  const std::string& tenant = job->request.tenant;
  {
    MutexLock lock(job->mutex);
    if (job->status != JobStatus::kQueued) {
      // Cancelled while queued: the tombstone leaves the queue here, so
      // the tenant's admission slot is released now.
      MutexLock tenants(counters_->tenants_mutex);
      TenantStats& t = counters_->tenant_locked(tenant);
      if (t.outstanding > 0) --t.outstanding;
      return;
    }
    job->status = JobStatus::kRunning;
  }
  {
    MutexLock tenants(counters_->tenants_mutex);
    TenantStats& t = counters_->tenant_locked(tenant);
    if (t.queue_depth > 0) --t.queue_depth;
  }
  // Releases the tenant's outstanding slot and records the terminal state.
  const auto account_terminal = [&](bool done) {
    MutexLock tenants(counters_->tenants_mutex);
    TenantStats& t = counters_->tenant_locked(tenant);
    if (done)
      ++t.completed;
    else
      ++t.failed;
    if (t.outstanding > 0) --t.outstanding;
  };
  try {
    const JobRequest& req = job->request;
    // The Pipeline facade is the single definition of the seeding
    // convention, which is what makes a served job bit-identical to a
    // standalone run with the same request.
    Pipeline pipeline(std::move(*job->program));
    pipeline.strategy(req.strategy, req.strategy_config)
        .backend(req.backend, req.backend_config)
        .schedule(req.schedule)
        .threads(req.threads)
        .seed(req.seed)
        .cached_plan(job->plan);
    const std::size_t table_cap = config_.tenant_shot_table_capacity;
    RunResult run;
    if (req.stream_sink) {
      // Streaming delivery: batches go to the tenant's sink from this
      // worker thread as they complete; the stored RunResult carries the
      // metadata a client needs to reassemble/estimate, not the records.
      // The tenant's ShotTable aggregate taps the stream on the way past —
      // the engine never re-materialises what the sink consumed.
      be::BatchSink sink = req.stream_sink;
      if (table_cap > 0) {
        sink = [this, &tenant, table_cap,
                inner = req.stream_sink](be::TrajectoryBatch&& batch) {
          detail::RecordRuns runs;
          detail::append_runs(runs, batch.records);
          {
            MutexLock tenants(counters_->tenants_mutex);
            detail::tabulate_runs(counters_->tenant_locked(tenant), runs,
                                  table_cap);
          }
          inner(std::move(batch));
        };
      }
      run.weighting = pipeline.weighting();
      run.strategy = req.strategy;
      run.backend = req.backend;
      const be::StreamSummary summary = pipeline.run_streaming(sink);
      run.num_specs = summary.num_batches;
      run.result.prepare_seconds = summary.prepare_seconds;
      run.result.sample_seconds = summary.sample_seconds;
    } else {
      run = pipeline.run();
      if (table_cap > 0) {
        detail::RecordRuns runs;
        for (const be::TrajectoryBatch& batch : run.result.batches)
          detail::append_runs(runs, batch.records);
        MutexLock tenants(counters_->tenants_mutex);
        detail::tabulate_runs(counters_->tenant_locked(tenant), runs,
                              table_cap);
      }
    }
    // Count before notifying: a waiter reading stats() right after wait()
    // returns must already see this job as served.
    counters_->served.fetch_add(1, std::memory_order_relaxed);
    account_terminal(/*done=*/true);
    {
      MutexLock lock(job->mutex);
      job->result = std::move(run);
      job->status = JobStatus::kDone;
      job->cv.notify_all();
    }
  } catch (const std::exception& e) {
    counters_->failed.fetch_add(1, std::memory_order_relaxed);
    account_terminal(/*done=*/false);
    job->finish(JobStatus::kFailed, e.what());
  }
}

EngineStats Engine::stats() const {
  EngineStats out;
  out.submitted = counters_->submitted.load(std::memory_order_relaxed);
  out.served = counters_->served.load(std::memory_order_relaxed);
  out.failed = counters_->failed.load(std::memory_order_relaxed);
  out.cancelled = counters_->cancelled.load(std::memory_order_relaxed);
  out.rejected = counters_->rejected.load(std::memory_order_relaxed);
  out.plan_cache_hits = plan_cache_.hits();
  out.plan_cache_misses = plan_cache_.misses();
  {
    MutexLock lock(mutex_);
    // Count live queued jobs only: cancelled tombstones awaiting their
    // purge must not read as backlog to a monitoring client.
    for (const auto* lane : {&queue_high_, &queue_normal_})
      for (const std::shared_ptr<detail::JobState>& job : *lane) {
        MutexLock job_lock(job->mutex);
        if (job->status == JobStatus::kQueued) ++out.queue_depth;
      }
  }
  {
    MutexLock tenants(counters_->tenants_mutex);
    out.tenants = counters_->tenants;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Stats JSON
// ---------------------------------------------------------------------------

namespace {

/// Most shot records emitted per tenant in the stats JSON — the table
/// itself is bounded by tenant_shot_table_capacity, but a monitoring reply
/// should stay small even when that knob is raised.
constexpr std::size_t kJsonShotRecords = 256;

/// Minimal JSON string escape (quotes, backslashes, control characters) —
/// tenant labels are client-asserted text and must not break the document.
void append_json_string(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

std::string stats_to_json(const EngineStats& stats) {
  std::ostringstream os;
  os << "{\"submitted\": " << stats.submitted << ", \"served\": " << stats.served
     << ", \"failed\": " << stats.failed << ", \"cancelled\": " << stats.cancelled
     << ", \"rejected\": " << stats.rejected
     << ", \"plan_cache_hits\": " << stats.plan_cache_hits
     << ", \"plan_cache_misses\": " << stats.plan_cache_misses
     << ", \"plan_cache_hit_rate\": " << stats.plan_cache_hit_rate()
     << ", \"queue_depth\": " << stats.queue_depth << ", \"tenants\": {";
  bool first = true;
  for (const auto& [name, t] : stats.tenants) {
    if (!first) os << ", ";
    first = false;
    append_json_string(os, name);
    os << ": {\"admitted\": " << t.admitted << ", \"rejected\": " << t.rejected
       << ", \"completed\": " << t.completed << ", \"failed\": " << t.failed
       << ", \"cancelled\": " << t.cancelled
       << ", \"queue_depth\": " << t.queue_depth
       << ", \"queue_high_water\": " << t.queue_high_water
       << ", \"outstanding\": " << t.outstanding
       << ", \"shot_overflow\": " << t.shot_overflow
       // Truncation is deterministic (smallest records first) — monitoring
       // diffs must not flap on map order.
       << ", \"shots\": " << stats::to_json(t.shots, kJsonShotRecords)
       << '}';
  }
  os << "}}";
  return os.str();
}

}  // namespace ptsbe::serve

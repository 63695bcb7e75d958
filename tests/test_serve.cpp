// The ptsbe::serve engine: submit/wait/poll/cancel lifecycle, bounded FIFO
// admission with reject-with-status, the ExecPlan LRU cache, per-engine
// stats — and the determinism contract: a served job's records and dataset
// bytes are bit-identical to a standalone Pipeline::run with the same
// request, under concurrent multi-tenant load.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ptsbe/core/dataset.hpp"
#include "ptsbe/io/ptq.hpp"
#include "ptsbe/noise/channels.hpp"
#include "ptsbe/serve/engine.hpp"
#include "temp_file.hpp"

namespace ptsbe {
namespace {

/// The shared workload: GHZ(n) with depolarizing gate noise and bit-flip
/// readout noise, as canonical `.ptq` text (what a tenant would submit).
std::string ghz_ptq(unsigned qubits, double p = 0.02) {
  Circuit circuit(qubits);
  circuit.h(0);
  for (unsigned q = 0; q + 1 < qubits; ++q) circuit.cx(q, q + 1);
  circuit.measure_all();
  NoiseModel noise;
  noise.add_all_gate_noise(channels::depolarizing(p));
  noise.add_measurement_noise(channels::bit_flip(p / 2));
  return io::write_circuit(noise.apply(circuit));
}

serve::JobRequest ghz_request(unsigned qubits = 4) {
  serve::JobRequest req;
  req.circuit_text = ghz_ptq(qubits);
  req.strategy_config.nsamples = 300;
  req.strategy_config.nshots = 100;
  req.seed = 7;
  return req;
}

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Bit-exact batch equality (records, weights, spec identity).
void expect_same_result(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.result.batches.size(), b.result.batches.size());
  for (std::size_t i = 0; i < a.result.batches.size(); ++i) {
    const be::TrajectoryBatch& x = a.result.batches[i];
    const be::TrajectoryBatch& y = b.result.batches[i];
    EXPECT_EQ(x.spec_index, y.spec_index);
    EXPECT_EQ(x.spec.branches, y.spec.branches);
    EXPECT_EQ(x.spec.shots, y.spec.shots);
    EXPECT_EQ(x.records, y.records) << "batch " << i;
    EXPECT_EQ(x.realized_probability, y.realized_probability);
  }
  EXPECT_EQ(a.weighting, b.weighting);
}

// ---------------------------------------------------------------------------
// Lifecycle basics.
// ---------------------------------------------------------------------------

TEST(ServeEngine, SubmitWaitDone) {
  serve::Engine engine({.workers = 2, .queue_capacity = 8});
  serve::JobHandle job = engine.submit(ghz_request());
  const RunResult& run = job.wait();
  EXPECT_EQ(job.status(), serve::JobStatus::kDone);
  EXPECT_TRUE(job.poll());
  EXPECT_GT(run.result.total_shots(), 0u);
  EXPECT_EQ(run.strategy, "probabilistic");
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ServeEngine, InvalidRequestsFailWithStatusNotThrow) {
  serve::Engine engine({.workers = 1, .queue_capacity = 4});

  serve::JobRequest bad_circuit = ghz_request();
  bad_circuit.circuit_text = "ptq 1\nqubits 2\nhh 0\n";
  bad_circuit.source_name = "tenant.ptq";
  serve::JobHandle j1 = engine.submit(bad_circuit);
  EXPECT_EQ(j1.status(), serve::JobStatus::kFailed);
  EXPECT_NE(j1.error().find("tenant.ptq:3:1"), std::string::npos) << j1.error();
  EXPECT_THROW((void)j1.wait(), runtime_failure);
  EXPECT_THROW((void)j1.result(), precondition_error);

  serve::JobRequest bad_strategy = ghz_request();
  bad_strategy.strategy = "bogus";
  serve::JobHandle j2 = engine.submit(bad_strategy);
  EXPECT_EQ(j2.status(), serve::JobStatus::kFailed);
  EXPECT_NE(j2.error().find("unknown strategy 'bogus'"), std::string::npos);

  serve::JobRequest bad_backend = ghz_request();
  bad_backend.backend = "bogus";
  serve::JobHandle j3 = engine.submit(bad_backend);
  EXPECT_EQ(j3.status(), serve::JobStatus::kFailed);

  // Unsupported program for the chosen backend fails at submit, not deep
  // inside a worker: a T gate is outside the stabilizer fragment.
  serve::JobRequest unsupported = ghz_request();
  unsupported.circuit_text = "ptq 1\nqubits 1\nt 0\nmeasure 0\n";
  unsupported.backend = "stabilizer";
  serve::JobHandle j4 = engine.submit(unsupported);
  EXPECT_EQ(j4.status(), serve::JobStatus::kFailed);
  EXPECT_NE(j4.error().find("does not support"), std::string::npos);

  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.failed, 4u);
  EXPECT_EQ(stats.served, 0u);
}

// The stabilizer admits gates by matrix: a `unitary` line named "h" whose
// matrix is RZ(pi/4) fails at submit like any unsupported program, so it is
// never planned, queued or handed to a worker.
TEST(ServeEngine, StabilizerGateCheckedByMatrixAtSubmit) {
  serve::Engine engine({.workers = 1, .queue_capacity = 4});
  serve::JobRequest req = ghz_request();
  req.backend = "stabilizer";
  req.circuit_text =
      "ptq 1\nqubits 2\n"
      "unitary h 1 0 0 0.92387953251128674 -0.38268343236508978 0 0 0 0 "
      "0.92387953251128674 0.38268343236508978\n"
      "cx 0 1\nmeasure 0\nmeasure 1\n";
  serve::JobHandle job = engine.submit(req);
  EXPECT_EQ(job.status(), serve::JobStatus::kFailed);
  EXPECT_NE(job.error().find("does not support"), std::string::npos)
      << job.error();
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.plan_cache_misses, 0u);
}

// ---------------------------------------------------------------------------
// Admission control: bounded queue, reject-with-status, cancellation,
// shutdown. A deliberately heavy job (bulk-sampling millions of shots) pins
// the single worker while the queue fills.
// ---------------------------------------------------------------------------

serve::JobRequest heavy_request() {
  serve::JobRequest req;
  req.circuit_text = ghz_ptq(2);
  req.strategy = "enumerate";
  // GHZ(2) error-free trajectory has p ≈ 0.94: the cutoff keeps it alone.
  req.strategy_config.probability_cutoff = 0.5;
  req.strategy_config.max_results = 1;
  req.strategy_config.nshots = 4'000'000;
  req.seed = 3;
  return req;
}

TEST(ServeEngine, ShutdownRejectsWithStatus) {
  serve::Engine engine({.workers = 1, .queue_capacity = 3});
  std::vector<serve::JobHandle> admitted = {engine.submit(heavy_request())};
  while (admitted[0].status() == serve::JobStatus::kQueued)
    std::this_thread::yield();
  admitted.push_back(engine.submit(ghz_request()));
  admitted.push_back(engine.submit(ghz_request()));
  EXPECT_EQ(engine.stats().queue_depth, 2u);
  // Drains: the running job and both queued behind it finish.
  engine.shutdown();
  for (const serve::JobHandle& job : admitted)
    EXPECT_EQ(job.status(), serve::JobStatus::kDone);
  EXPECT_EQ(engine.stats().served, admitted.size());
  serve::JobHandle after = engine.submit(ghz_request());
  EXPECT_EQ(after.status(), serve::JobStatus::kRejected);
  EXPECT_EQ(after.reject_reason(), serve::RejectReason::kShutdown);
  EXPECT_NE(after.error().find("shutting down"), std::string::npos);
  EXPECT_EQ(engine.stats().rejected, 1u);
}

TEST(ServeEngine, QueueFullRejectsWithStatus) {
  serve::Engine engine(
      {.workers = 1, .queue_capacity = 1, .plan_cache_capacity = 8});
  serve::JobHandle heavy = engine.submit(heavy_request());
  // Wait until the worker owns the heavy job, so the queue state below is
  // deterministic: one slot free, then full.
  while (heavy.status() == serve::JobStatus::kQueued)
    std::this_thread::yield();

  serve::JobHandle queued = engine.submit(ghz_request());
  EXPECT_EQ(queued.status(), serve::JobStatus::kQueued);
  EXPECT_EQ(engine.stats().queue_depth, 1u);

  serve::JobHandle rejected = engine.submit(ghz_request());
  EXPECT_EQ(rejected.status(), serve::JobStatus::kRejected);
  EXPECT_NE(rejected.error().find("admission queue full"), std::string::npos);
  EXPECT_TRUE(rejected.poll());
  EXPECT_THROW((void)rejected.wait(), runtime_failure);

  // Admission is checked before validation: a full queue sheds even a
  // malformed request as kRejected — no parse, no plan-cache traffic.
  const std::uint64_t misses_before = engine.stats().plan_cache_misses;
  serve::JobRequest malformed = ghz_request();
  malformed.circuit_text = "ptq 1\nqubits 2\nhh 0\n";
  serve::JobHandle shed = engine.submit(malformed);
  EXPECT_EQ(shed.status(), serve::JobStatus::kRejected);
  EXPECT_EQ(engine.stats().plan_cache_misses, misses_before);

  (void)heavy.wait();
  (void)queued.wait();
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.served, 2u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ServeEngine, CancelQueuedJob) {
  serve::Engine engine({.workers = 1, .queue_capacity = 4});
  serve::JobHandle heavy = engine.submit(heavy_request());
  while (heavy.status() == serve::JobStatus::kQueued)
    std::this_thread::yield();

  serve::JobHandle victim = engine.submit(ghz_request());
  EXPECT_TRUE(victim.cancel());
  EXPECT_EQ(victim.status(), serve::JobStatus::kCancelled);
  EXPECT_FALSE(victim.cancel());  // already terminal
  EXPECT_THROW((void)victim.wait(), runtime_failure);

  const RunResult& run = heavy.wait();
  EXPECT_GT(run.result.total_shots(), 0u);
  EXPECT_FALSE(heavy.cancel());  // done jobs cannot be cancelled
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.served, 1u);
}

TEST(ServeEngine, CancelFreesAdmissionSlot) {
  serve::Engine engine({.workers = 1, .queue_capacity = 1});
  serve::JobHandle heavy = engine.submit(heavy_request());
  while (heavy.status() == serve::JobStatus::kQueued)
    std::this_thread::yield();

  serve::JobHandle victim = engine.submit(ghz_request());
  EXPECT_EQ(victim.status(), serve::JobStatus::kQueued);  // queue now full
  EXPECT_TRUE(victim.cancel());
  // The tombstone must not keep counting against capacity: the next
  // submit reclaims the slot instead of being rejected.
  serve::JobHandle next = engine.submit(ghz_request());
  EXPECT_EQ(next.status(), serve::JobStatus::kQueued);
  (void)heavy.wait();
  (void)next.wait();
  EXPECT_EQ(engine.stats().rejected, 0u);
  EXPECT_EQ(engine.stats().served, 2u);
}

// ---------------------------------------------------------------------------
// ExecPlan cache.
// ---------------------------------------------------------------------------

TEST(ServeEngine, PlanCacheHitsOnRepeatCircuits) {
  serve::Engine engine(
      {.workers = 1, .queue_capacity = 8, .plan_cache_capacity = 4});

  serve::JobHandle first = engine.submit(ghz_request());
  EXPECT_FALSE(first.plan_cache_hit());
  serve::JobHandle second = engine.submit(ghz_request());
  EXPECT_TRUE(second.plan_cache_hit());

  // Formatting-only differences collapse onto the same cache entry: keys
  // are the canonical text of the *parsed* program.
  serve::JobRequest reformatted = ghz_request();
  reformatted.circuit_text =
      "# tenant formatting\n" + reformatted.circuit_text + "\n# trailing\n";
  serve::JobHandle third = engine.submit(reformatted);
  EXPECT_TRUE(third.plan_cache_hit());

  // A different BackendConfig must not alias the cached plan.
  serve::JobRequest fused = ghz_request();
  fused.backend_config.fuse_gates = true;
  serve::JobHandle fourth = engine.submit(fused);
  EXPECT_FALSE(fourth.plan_cache_hit());

  // And the cached plan changes nothing observable: hit == miss, bitwise.
  expect_same_result(first.wait(), second.wait());
  expect_same_result(first.wait(), third.wait());

  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.plan_cache_hits, 2u);
  EXPECT_EQ(stats.plan_cache_misses, 2u);
  EXPECT_NEAR(stats.plan_cache_hit_rate(), 0.5, 1e-12);
}

TEST(ServeEngine, StabilizerJobsUseThePlanCache) {
  serve::Engine engine(
      {.workers = 1, .queue_capacity = 4, .plan_cache_capacity = 4});
  serve::JobRequest req = ghz_request();
  req.backend = "stabilizer";
  serve::JobHandle first = engine.submit(req);
  serve::JobHandle second = engine.submit(req);
  EXPECT_FALSE(first.plan_cache_hit());
  EXPECT_TRUE(second.plan_cache_hit());
  expect_same_result(first.wait(), second.wait());
}

TEST(ServeEngine, PlanCacheEvictsLeastRecentlyUsed) {
  serve::PlanCache cache(2);
  const auto plan = [] { return std::make_shared<const ExecPlan>(); };
  cache.insert("a", plan());
  cache.insert("b", plan());
  EXPECT_NE(cache.lookup("a"), nullptr);  // refreshes "a"; "b" is now LRU
  cache.insert("c", plan());              // evicts "b"
  EXPECT_EQ(cache.lookup("b"), nullptr);
  EXPECT_NE(cache.lookup("a"), nullptr);
  EXPECT_NE(cache.lookup("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);

  serve::PlanCache disabled(0);
  disabled.insert("a", plan());
  EXPECT_EQ(disabled.lookup("a"), nullptr);
  EXPECT_EQ(disabled.size(), 0u);
}

TEST(ServeEngine, CacheDisabledStillServes) {
  serve::Engine engine(
      {.workers = 1, .queue_capacity = 4, .plan_cache_capacity = 0});
  serve::JobHandle a = engine.submit(ghz_request());
  serve::JobHandle b = engine.submit(ghz_request());
  expect_same_result(a.wait(), b.wait());
  EXPECT_FALSE(a.plan_cache_hit());
  EXPECT_FALSE(b.plan_cache_hit());
  EXPECT_EQ(engine.stats().plan_cache_hits, 0u);
}

// ---------------------------------------------------------------------------
// QoS: priority lanes, tenant quotas, per-tenant counters. A heavy job pins
// the single worker so lane and quota state below is deterministic.
// ---------------------------------------------------------------------------

TEST(ServeQoS, PriorityNamesRoundTrip) {
  EXPECT_EQ(serve::to_string(serve::Priority::kNormal), "normal");
  EXPECT_EQ(serve::to_string(serve::Priority::kHigh), "high");
  EXPECT_EQ(serve::priority_from_string("high"), serve::Priority::kHigh);
  EXPECT_THROW((void)serve::priority_from_string("urgent"),
               precondition_error);
  EXPECT_EQ(serve::to_string(serve::RejectReason::kTenantQuota),
            "tenant-quota");
}

TEST(ServeQoS, HighLaneDrainsBeforeNormalLane) {
  serve::Engine engine({.workers = 1, .queue_capacity = 8});
  serve::JobHandle pin = engine.submit(heavy_request());
  while (pin.status() == serve::JobStatus::kQueued) std::this_thread::yield();

  // With the worker pinned, queue three jobs: normal, normal, high. The
  // worker must pop the high lane first, FIFO within each lane. Start
  // order is observed through each job's stream sink (invoked on the
  // worker thread as execution begins to produce batches).
  std::mutex order_mutex;
  std::vector<std::string> order;
  const auto tagged = [&](const char* tag, serve::Priority priority) {
    serve::JobRequest req = ghz_request(3);
    req.priority = priority;
    bool first = true;
    req.stream_sink = [&order, &order_mutex, tag,
                       first](const be::TrajectoryBatch&) mutable {
      if (first) {
        first = false;
        const std::lock_guard<std::mutex> hold(order_mutex);
        order.emplace_back(tag);
      }
    };
    return engine.submit(req);
  };
  serve::JobHandle normal_a = tagged("normal-a", serve::Priority::kNormal);
  serve::JobHandle normal_b = tagged("normal-b", serve::Priority::kNormal);
  serve::JobHandle high_c = tagged("high-c", serve::Priority::kHigh);

  (void)pin.wait();
  (void)normal_a.wait();
  (void)normal_b.wait();
  (void)high_c.wait();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "high-c");  // jumped both queued normal jobs
  EXPECT_EQ(order[1], "normal-a");
  EXPECT_EQ(order[2], "normal-b");
}

TEST(ServeQoS, TenantQuotaBoundsOutstandingJobs) {
  serve::EngineConfig config;
  config.workers = 1;
  config.queue_capacity = 16;
  config.tenant_quota = 1;
  config.tenant_quota_overrides["carol"] = 2;
  config.tenant_quota_overrides["dave"] = 0;  // explicit unlimited
  serve::Engine engine(config);

  serve::JobRequest pin_req = heavy_request();
  pin_req.tenant = "pinner";
  serve::JobHandle pin = engine.submit(pin_req);
  while (pin.status() == serve::JobStatus::kQueued) std::this_thread::yield();

  const auto submit_as = [&](const char* tenant) {
    serve::JobRequest req = ghz_request(3);
    req.tenant = tenant;
    return engine.submit(req);
  };

  // Default quota 1: alice's second *outstanding* job is refused with the
  // distinct quota reason, while the queue itself still has room.
  serve::JobHandle alice_1 = submit_as("alice");
  EXPECT_EQ(alice_1.status(), serve::JobStatus::kQueued);
  serve::JobHandle alice_2 = submit_as("alice");
  EXPECT_EQ(alice_2.status(), serve::JobStatus::kRejected);
  EXPECT_EQ(alice_2.reject_reason(), serve::RejectReason::kTenantQuota);
  EXPECT_NE(alice_2.error().find("quota"), std::string::npos);

  // One tenant at quota never affects another.
  serve::JobHandle bob_1 = submit_as("bob");
  EXPECT_EQ(bob_1.status(), serve::JobStatus::kQueued);

  // Overrides win over the default; 0 means unlimited.
  serve::JobHandle carol_1 = submit_as("carol");
  serve::JobHandle carol_2 = submit_as("carol");
  EXPECT_EQ(carol_2.status(), serve::JobStatus::kQueued);
  serve::JobHandle carol_3 = submit_as("carol");
  EXPECT_EQ(carol_3.reject_reason(), serve::RejectReason::kTenantQuota);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(submit_as("dave").status(), serve::JobStatus::kQueued);
  }

  (void)pin.wait();
  (void)alice_1.wait();
  (void)bob_1.wait();
  (void)carol_1.wait();
  (void)carol_2.wait();

  // Quota counts *outstanding* jobs, not lifetime jobs: with her first job
  // done, alice may submit again.
  serve::JobHandle alice_3 = submit_as("alice");
  EXPECT_NE(alice_3.status(), serve::JobStatus::kRejected);
  (void)alice_3.wait();

  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.tenants.at("alice").admitted, 2u);
  EXPECT_EQ(stats.tenants.at("alice").rejected, 1u);
  EXPECT_EQ(stats.tenants.at("alice").completed, 2u);
  EXPECT_EQ(stats.tenants.at("alice").outstanding, 0u);
  EXPECT_EQ(stats.tenants.at("carol").rejected, 1u);
  EXPECT_EQ(stats.tenants.at("dave").admitted, 4u);
  EXPECT_GE(stats.tenants.at("alice").queue_high_water, 1u);
}

TEST(ServeQoS, RejectReasonsAreDistinct) {
  serve::Engine engine({.workers = 1, .queue_capacity = 1});
  serve::JobHandle pin = engine.submit(heavy_request());
  while (pin.status() == serve::JobStatus::kQueued) std::this_thread::yield();
  EXPECT_EQ(pin.reject_reason(), serve::RejectReason::kNone);

  serve::JobHandle queued = engine.submit(ghz_request());
  serve::JobHandle full = engine.submit(ghz_request());
  EXPECT_EQ(full.reject_reason(), serve::RejectReason::kQueueFull);

  (void)pin.wait();
  (void)queued.wait();
  engine.shutdown();
  serve::JobHandle late = engine.submit(ghz_request());
  EXPECT_EQ(late.reject_reason(), serve::RejectReason::kShutdown);
}

TEST(ServeQoS, StatsJsonIsDeterministicAndEscaped) {
  serve::EngineStats stats;
  stats.submitted = 3;
  stats.served = 2;
  serve::TenantStats weird;
  weird.admitted = 2;
  weird.queue_high_water = 1;
  stats.tenants["we\"ird\\tenant"] = weird;
  stats.tenants["alice"] = serve::TenantStats{};
  const std::string json = serve::stats_to_json(stats);
  EXPECT_NE(json.find("\"submitted\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tenants\": {\"alice\": {"), std::string::npos)
      << json;  // lexicographic tenant order
  EXPECT_NE(json.find("\"we\\\"ird\\\\tenant\": {\"admitted\": 2,"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"queue_high_water\": 1"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// The determinism contract: served == standalone, bit for bit, for every
// strategy × backend × schedule × threads cell — submitted concurrently so
// jobs genuinely contend for the worker pool and the plan cache.
// ---------------------------------------------------------------------------

struct MatrixCell {
  const char* strategy;
  const char* backend;
  be::Schedule schedule;
  std::size_t threads;
};

TEST(ServeDeterminism, MatrixMatchesStandalonePipeline) {
  const std::vector<MatrixCell> cells = {
      {"probabilistic", "statevector", be::Schedule::kIndependent, 1},
      {"probabilistic", "statevector", be::Schedule::kSharedPrefix, 2},
      {"probabilistic", "mps", be::Schedule::kIndependent, 2},
      {"probabilistic", "stabilizer", be::Schedule::kIndependent, 1},
      {"probabilistic", "stabilizer", be::Schedule::kSharedPrefix, 2},
      {"band", "statevector", be::Schedule::kIndependent, 2},
      {"band", "statevector", be::Schedule::kSharedPrefix, 1},
      {"band", "mps", be::Schedule::kSharedPrefix, 2},
      {"proportional", "statevector", be::Schedule::kIndependent, 1},
      {"enumerate", "densmat", be::Schedule::kIndependent, 1},
  };

  const std::string text = ghz_ptq(4);
  const auto request_for = [&](const MatrixCell& cell) {
    serve::JobRequest req;
    req.circuit_text = text;
    req.strategy = cell.strategy;
    req.backend = cell.backend;
    req.schedule = cell.schedule;
    req.threads = cell.threads;
    req.seed = 20260728;
    req.strategy_config.nsamples = 200;
    req.strategy_config.nshots = 50;
    req.strategy_config.p_min = 1e-9;
    req.strategy_config.p_max = 1.0;
    req.strategy_config.probability_cutoff = 1e-6;
    return req;
  };

  // Saturate a small pool so cells genuinely run concurrently.
  serve::Engine engine(
      {.workers = 4, .queue_capacity = cells.size(), .plan_cache_capacity = 8});
  std::vector<serve::JobHandle> jobs;
  jobs.reserve(cells.size());
  for (const MatrixCell& cell : cells) jobs.push_back(engine.submit(request_for(cell)));

  const NoisyCircuit program = io::parse_circuit(text);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const MatrixCell& cell = cells[i];
    SCOPED_TRACE(std::string(cell.strategy) + "/" + cell.backend + "/" +
                 be::to_string(cell.schedule) + "/t" +
                 std::to_string(cell.threads));
    const serve::JobRequest req = request_for(cell);
    const RunResult standalone = Pipeline(program)
                                     .strategy(req.strategy, req.strategy_config)
                                     .backend(req.backend, req.backend_config)
                                     .schedule(req.schedule)
                                     .threads(req.threads)
                                     .seed(req.seed)
                                     .run();
    const RunResult& served = jobs[i].wait();
    expect_same_result(standalone, served);

    // Dataset bytes, not just records: the full export path agrees.
    const auto path_a =
        test::temp_file("serve_det_a_" + std::to_string(i) + ".bin");
    const auto path_b =
        test::temp_file("serve_det_b_" + std::to_string(i) + ".bin");
    standalone.to_binary(path_a);
    served.to_binary(path_b);
    EXPECT_EQ(file_bytes(path_a), file_bytes(path_b));
  }

  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.served, cells.size());
  EXPECT_EQ(stats.failed, 0u);
  // Every backend's cells share one (circuit, config) key, so each repeat
  // must have hit: four statevector, one mps and one stabilizer.
  EXPECT_GE(stats.plan_cache_hits, 6u);
}

}  // namespace
}  // namespace ptsbe

// End-to-end QEC workload suite: the determinism matrix extended over QEC
// memory experiments (threads × schedule × fusion × backend — records AND
// dataset bytes bit-identical, standalone and through serve::Engine), the
// golden regression pinning exact logical-error counts, the `.ptq`
// round-trip property over QEC-generated circuits (ancilla measure lines,
// mid-circuit measurement ordering), and the qec::metrics analytics
// (Wilson intervals, streaming/batch agreement with the estimator layer).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "ptsbe/core/dataset.hpp"
#include "ptsbe/core/pipeline.hpp"
#include "ptsbe/io/ptq.hpp"
#include "ptsbe/qec/metrics.hpp"
#include "ptsbe/serve/engine.hpp"
#include "temp_file.hpp"

namespace ptsbe {
namespace {

using qec::CssBasis;
using qec::LogicalErrorAccumulator;
using qec::MemoryWorkload;
using qec::MemoryWorkloadConfig;
using qec::WilsonInterval;

MemoryWorkload repetition_workload(unsigned distance, double noise,
                                   unsigned rounds = 2) {
  MemoryWorkloadConfig cfg;
  cfg.code = "repetition";
  cfg.distance = distance;
  cfg.rounds = rounds;
  cfg.noise = noise;
  return qec::make_memory_workload(cfg);
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(is)) << path;
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

/// Bitwise equality — the determinism contract is exact, not 4-ulp.
void expect_results_identical(const be::Result& a, const be::Result& b) {
  ASSERT_EQ(a.batches.size(), b.batches.size());
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    const be::TrajectoryBatch& x = a.batches[i];
    const be::TrajectoryBatch& y = b.batches[i];
    EXPECT_EQ(x.spec_index, y.spec_index);
    EXPECT_TRUE(x.spec.same_assignment(y.spec));
    EXPECT_EQ(x.spec.shots, y.spec.shots);
    EXPECT_EQ(x.records, y.records) << "spec " << i;
    EXPECT_EQ(x.realized_probability, y.realized_probability) << "spec " << i;
  }
}

std::vector<std::size_t> matrix_thread_counts() {
  std::vector<std::size_t> counts = {2};
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  if (hw != 1 && hw != 2) counts.push_back(hw);
  return counts;
}

// ---------------------------------------------------------------------------
// Satellite: the determinism matrix over QEC workloads. For the repetition
// memory experiment, every (threads ∈ {1, 2, hw}) × (schedule) × (fusion)
// cell must produce records, dataset bytes AND decoded failure counts
// bit-identical to the single-threaded reference — on an amplitude backend
// and on the stabilizer backend (whose shared-prefix fallback must stay
// deterministic too).
// ---------------------------------------------------------------------------
TEST(QecDeterminismMatrix, ThreadsScheduleFusionPinRecordsAndBytes) {
  const MemoryWorkload workload = repetition_workload(3, 0.02);
  const auto decoder =
      qec::make_shot_decoder("union-find", workload.experiment);
  const std::vector<std::size_t> thread_counts = matrix_thread_counts();
  const auto ref_path = test::temp_file("qec_matrix_ref.bin");
  const auto got_path = test::temp_file("qec_matrix_got.bin");

  pts::StrategyConfig cfg;
  cfg.nsamples = 200;
  cfg.nshots = 16;
  Pipeline sampler(workload.noisy);
  sampler.strategy("probabilistic", cfg).seed(20250807);
  const std::vector<TrajectorySpec> specs = sampler.sample();
  ASSERT_FALSE(specs.empty());

  for (const std::string& backend : {std::string("statevector"),
                                     std::string("stabilizer")}) {
    for (const be::Schedule schedule :
         {be::Schedule::kIndependent, be::Schedule::kSharedPrefix}) {
      for (const bool fuse : {false, true}) {
        be::Options options;
        options.backend = backend;
        options.schedule = schedule;
        options.config.fuse_gates = fuse;
        options.threads = 1;
        const be::Result reference =
            be::execute(workload.noisy, specs, options);
        dataset::write_binary(ref_path, reference);
        const std::string ref_bytes = slurp(ref_path);
        ASSERT_FALSE(ref_bytes.empty());
        LogicalErrorAccumulator ref_acc(*decoder, be::Weighting::kDrawWeighted);
        ref_acc.consume(reference);
        for (const std::size_t threads : thread_counts) {
          SCOPED_TRACE("backend=" + backend + " schedule=" +
                       to_string(schedule) + " fuse=" + std::to_string(fuse) +
                       " threads=" + std::to_string(threads));
          options.threads = threads;
          const be::Result result =
              be::execute(workload.noisy, specs, options);
          expect_results_identical(reference, result);
          dataset::write_binary(got_path, result);
          EXPECT_EQ(ref_bytes, slurp(got_path));
          // The analytics see exactly the same failures, too.
          LogicalErrorAccumulator acc(*decoder, be::Weighting::kDrawWeighted);
          acc.consume(result);
          EXPECT_EQ(ref_acc.shots(), acc.shots());
          EXPECT_EQ(ref_acc.failures(), acc.failures());
          EXPECT_EQ(ref_acc.logical_error_rate(), acc.logical_error_rate());
        }
      }
    }
  }
}

// The streaming sink path (what threshold sweeps actually run) delivers the
// same shots/failures as the materialised result at every thread count.
TEST(QecDeterminismMatrix, StreamingSinkMatchesMaterialisedAnalytics) {
  const MemoryWorkload workload = repetition_workload(3, 0.02);
  const auto decoder =
      qec::make_shot_decoder("union-find", workload.experiment);
  pts::StrategyConfig cfg;
  cfg.nsamples = 150;
  cfg.nshots = 16;

  Pipeline pipeline(workload.noisy);
  pipeline.strategy("probabilistic", cfg).backend("stabilizer").seed(99);
  const RunResult reference = pipeline.run();
  LogicalErrorAccumulator ref_acc(*decoder, reference.weighting);
  ref_acc.consume(reference.result);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Pipeline streaming(workload.noisy);
    streaming.strategy("probabilistic", cfg)
        .backend("stabilizer")
        .threads(threads)
        .seed(99);
    LogicalErrorAccumulator acc(*decoder, streaming.weighting());
    streaming.run_streaming(acc.sink());
    EXPECT_EQ(ref_acc.shots(), acc.shots());
    EXPECT_EQ(ref_acc.failures(), acc.failures());
    // Weighted sums are accumulated in delivery order, which threads > 1
    // may permute; integer counts above are order-free, and at threads=1
    // the weighted rate must match bit-for-bit as well.
    if (threads == 1) {
      EXPECT_EQ(ref_acc.logical_error_rate(), acc.logical_error_rate());
    }
  }
}

// Acceptance: served QEC jobs (the .ptq job spec produced by the workload
// builder) are bit-identical to standalone Pipeline runs — records, bytes
// and decoded failures — across schedules and thread counts, with several
// tenants in flight at once.
TEST(QecDeterminismMatrix, ServedJobsBitIdenticalToStandalone) {
  const std::vector<MemoryWorkload> workloads = {
      repetition_workload(3, 0.02), repetition_workload(5, 0.05)};
  pts::StrategyConfig cfg;
  cfg.nsamples = 120;
  cfg.nshots = 10;

  struct Job {
    const MemoryWorkload* workload;
    be::Schedule schedule;
    std::size_t threads;
    std::uint64_t seed;
  };
  std::vector<Job> jobs;
  for (const MemoryWorkload& w : workloads)
    for (const be::Schedule schedule :
         {be::Schedule::kIndependent, be::Schedule::kSharedPrefix})
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2}})
        jobs.push_back(Job{&w, schedule, threads, 4242});

  serve::Engine engine({.workers = 3, .queue_capacity = 64});
  std::vector<serve::JobHandle> handles;
  handles.reserve(jobs.size());
  for (const Job& job : jobs) {
    serve::JobRequest req;
    req.circuit_text = job.workload->to_ptq();
    req.source_name = job.workload->experiment.code.name + ".ptq";
    req.strategy = "probabilistic";
    req.strategy_config = cfg;
    req.backend = "stabilizer";
    req.schedule = job.schedule;
    req.threads = job.threads;
    req.seed = job.seed;
    handles.push_back(engine.submit(std::move(req)));
  }

  const auto served_path = test::temp_file("qec_served.bin");
  const auto standalone_path = test::temp_file("qec_standalone.bin");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    SCOPED_TRACE("job=" + std::to_string(i) + " schedule=" +
                 to_string(job.schedule) +
                 " threads=" + std::to_string(job.threads));
    const RunResult& served = handles[i].wait();

    Pipeline standalone(job.workload->noisy);
    standalone.strategy("probabilistic", cfg)
        .backend("stabilizer")
        .schedule(job.schedule)
        .threads(job.threads)
        .seed(job.seed);
    const RunResult reference = standalone.run();

    expect_results_identical(reference.result, served.result);
    served.to_binary(served_path);
    reference.to_binary(standalone_path);
    EXPECT_EQ(slurp(standalone_path), slurp(served_path));

    const auto decoder =
        qec::make_shot_decoder("union-find", job.workload->experiment);
    LogicalErrorAccumulator served_acc(*decoder, served.weighting);
    served_acc.consume(served.result);
    LogicalErrorAccumulator ref_acc(*decoder, reference.weighting);
    ref_acc.consume(reference.result);
    EXPECT_EQ(ref_acc.shots(), served_acc.shots());
    EXPECT_EQ(ref_acc.failures(), served_acc.failures());
    EXPECT_EQ(ref_acc.logical_error_rate(), served_acc.logical_error_rate());
  }
}

// ---------------------------------------------------------------------------
// Satellite: golden regression. d=3 repetition at two noise strengths with
// a fixed seed must produce these exact logical-error counts. A change here
// means the generator, the noise binding, the sampler seeding, the backend
// or the decoder drifted — all silent-accuracy hazards. Update the pins
// only for an intentional, understood change.
// ---------------------------------------------------------------------------
TEST(QecGoldenRegression, RepetitionD3PinnedCounts) {
  struct Golden {
    double noise;
    std::uint64_t shots;
    std::uint64_t failures;
  };
  const std::vector<Golden> golden = {
      {0.02, 20000, 175},  // pinned from the first green run
      {0.05, 20000, 750},
  };
  for (const Golden& g : golden) {
    SCOPED_TRACE("noise=" + std::to_string(g.noise));
    const MemoryWorkload workload = repetition_workload(3, g.noise);
    const auto decoder =
        qec::make_shot_decoder("st-union-find", workload.experiment);
    qec::MemoryRunConfig run;
    run.strategy_config.nsamples = 800;
    run.strategy_config.nshots = 25;
    run.backend = "stabilizer";
    run.seed = 20250807;
    const qec::LogicalErrorPoint point =
        qec::run_memory_point(workload, *decoder, run);
    EXPECT_EQ(point.shots, g.shots);
    EXPECT_EQ(point.failures, g.failures);
  }
}

// ---------------------------------------------------------------------------
// Satellite: `.ptq` round-trip property over QEC-generated circuits — the
// ancilla measure lines are mid-circuit (measure ops interleaved with later
// gates) and carry readout-noise sites, both of which must survive
// serialisation exactly, preserving measurement order and site placement.
// ---------------------------------------------------------------------------
TEST(QecPtqRoundTrip, WorkloadsRoundTripExactly) {
  std::vector<MemoryWorkloadConfig> configs;
  for (unsigned d : {3u, 5u}) {
    MemoryWorkloadConfig cfg;
    cfg.code = "repetition";
    cfg.distance = d;
    cfg.rounds = 2;
    cfg.noise = 0.01 * d;
    configs.push_back(cfg);
  }
  {
    MemoryWorkloadConfig cfg;
    cfg.code = "surface";
    cfg.distance = 3;
    cfg.rounds = 2;
    cfg.noise = 0.003;
    configs.push_back(cfg);
    cfg.basis = CssBasis::kX;
    cfg.rounds = 1;
    configs.push_back(cfg);
  }
  {
    MemoryWorkloadConfig cfg;
    cfg.code = "steane";
    cfg.distance = 3;
    cfg.rounds = 3;
    cfg.noise = 0.02;
    cfg.readout_noise = 0.007;
    configs.push_back(cfg);
  }
  for (const MemoryWorkloadConfig& cfg : configs) {
    SCOPED_TRACE(cfg.code + " d=" + std::to_string(cfg.distance) + " r=" +
                 std::to_string(cfg.rounds) + " basis=" +
                 qec::to_string(cfg.basis));
    const MemoryWorkload workload = qec::make_memory_workload(cfg);
    const std::string text = workload.to_ptq();
    const NoisyCircuit parsed = io::parse_circuit(text, "qec-roundtrip");
    EXPECT_TRUE(io::programs_equal(parsed, workload.noisy));
    // Mid-circuit measurement ordering is part of the record layout — it
    // must survive exactly.
    EXPECT_EQ(parsed.circuit().measured_qubits(),
              workload.noisy.circuit().measured_qubits());
    // Serialisation is idempotent: write(parse(write(p))) == write(p).
    EXPECT_EQ(io::write_circuit(parsed), text);
  }
}

// A served job built from the round-tripped text behaves identically to the
// original — the job spec really is "the workload as data".
TEST(QecPtqRoundTrip, ReparsedWorkloadRunsIdentically) {
  const MemoryWorkload workload = repetition_workload(3, 0.02);
  const NoisyCircuit reparsed = io::parse_circuit(workload.to_ptq());
  pts::StrategyConfig cfg;
  cfg.nsamples = 100;
  cfg.nshots = 8;
  const auto run = [&](const NoisyCircuit& program) {
    Pipeline p(program);
    p.strategy("probabilistic", cfg).backend("stabilizer").seed(7);
    return p.run();
  };
  const RunResult a = run(workload.noisy);
  const RunResult b = run(reparsed);
  expect_results_identical(a.result, b.result);
}

// ---------------------------------------------------------------------------
// qec::metrics unit coverage.
// ---------------------------------------------------------------------------
TEST(WilsonIntervalTest, MatchesHandComputedValues) {
  // 0/100 at 95%: the textbook "rule of three"-adjacent case.
  const WilsonInterval zero = qec::wilson_interval(0, 100);
  EXPECT_EQ(zero.lower, 0.0);
  EXPECT_NEAR(zero.upper, 0.036994, 1e-5);
  // 5/100 at 95%.
  const WilsonInterval five = qec::wilson_interval(5, 100);
  EXPECT_NEAR(five.lower, 0.021543, 1e-5);
  EXPECT_NEAR(five.upper, 0.111752, 1e-5);
  // Degenerate and invalid inputs.
  const WilsonInterval empty = qec::wilson_interval(0, 0);
  EXPECT_EQ(empty.lower, 0.0);
  EXPECT_EQ(empty.upper, 1.0);
  EXPECT_THROW((void)qec::wilson_interval(5, 4), precondition_error);
  EXPECT_THROW((void)qec::wilson_interval(1, 10, 0.0), precondition_error);
}

TEST(WilsonIntervalTest, BracketsTheRateAndTightensWithTrials) {
  for (const double trials : {50.0, 500.0, 5000.0}) {
    const double failures = trials * 0.1;
    const WilsonInterval ci = qec::wilson_interval(failures, trials);
    EXPECT_LT(ci.lower, 0.1);
    EXPECT_GT(ci.upper, 0.1);
  }
  const WilsonInterval wide = qec::wilson_interval(5, 50);
  const WilsonInterval tight = qec::wilson_interval(500, 5000);
  EXPECT_LT(tight.upper - tight.lower, wide.upper - wide.lower);
}

// The accumulator's weighted rate must equal the estimator layer's answer
// bit-for-bit — both implement the same shot_weight rule.
TEST(LogicalErrorAccumulatorTest, AgreesWithEstimatorExactly) {
  const MemoryWorkload workload = repetition_workload(3, 0.04);
  const auto decoder =
      qec::make_shot_decoder("union-find", workload.experiment);
  pts::StrategyConfig cfg;
  cfg.nsamples = 200;
  cfg.nshots = 12;
  Pipeline pipeline(workload.noisy);
  pipeline.strategy("probabilistic", cfg).backend("stabilizer").seed(11);
  const RunResult run = pipeline.run();

  LogicalErrorAccumulator acc(*decoder, run.weighting);
  acc.consume(run.result);
  const be::Estimate est = run.estimate_probability([&](std::uint64_t r) {
    return decoder->decode_shot(r) != 0;
  });
  EXPECT_EQ(acc.logical_error_rate(), est.value);
  EXPECT_GT(acc.shots(), 0u);
  // Uniform-weight sanity: effective sample size equals the shot count.
  EXPECT_NEAR(acc.effective_shots(), static_cast<double>(acc.shots()),
              1e-6 * static_cast<double>(acc.shots()));
}

/// Fails odd records and counts its calls.
class CountingDecoder final : public qec::ShotDecoder {
 public:
  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }
  [[nodiscard]] unsigned decode_shot(std::uint64_t record) const override {
    ++calls;
    return static_cast<unsigned>(record & 1);
  }
  mutable std::size_t calls = 0;

 private:
  std::string name_ = "counting";
};

TEST(LogicalErrorAccumulatorTest, DecodesEachRunOnceWithPerShotSums) {
  be::Result result;
  be::TrajectoryBatch batch;
  batch.spec.shots = 6;
  batch.spec.nominal_probability = 0.3;
  batch.realized_probability = 0.3;
  batch.records = {1, 1, 1, 2, 2, 1};
  result.batches.push_back(batch);
  batch.spec_index = 1;
  batch.realized_probability = 0.7;
  batch.records = {3, 4, 4, 4, 3, 3, 3};
  result.batches.push_back(batch);

  CountingDecoder decoder;
  LogicalErrorAccumulator acc(decoder, be::Weighting::kProbabilityWeighted);
  acc.consume(result.batches[0]);
  EXPECT_EQ(decoder.calls, 3u);  // runs {1×3, 2×2, 1×1}
  acc.consume(result.batches[1]);
  EXPECT_EQ(decoder.calls, 6u);

  // The per-shot loop the accumulator used to run, one decode per record.
  std::uint64_t shots = 0, failures = 0;
  double weight_sum = 0.0, weight_sq_sum = 0.0, failure_weight = 0.0;
  for (const be::TrajectoryBatch& b : result.batches) {
    const double v = be::shot_weight(b, be::Weighting::kProbabilityWeighted);
    for (const std::uint64_t record : b.records) {
      const bool failed = (record & 1) != 0;
      ++shots;
      failures += failed ? 1 : 0;
      weight_sum += v;
      weight_sq_sum += v * v;
      if (failed) failure_weight += v;
    }
  }
  EXPECT_EQ(acc.shots(), shots);
  EXPECT_EQ(acc.failures(), failures);
  EXPECT_EQ(acc.logical_error_rate(), failure_weight / weight_sum);
  EXPECT_EQ(acc.effective_shots(), weight_sum * weight_sum / weight_sq_sum);
  const WilsonInterval ci = acc.wilson();
  const WilsonInterval expected = qec::wilson_interval(
      std::min(failure_weight / weight_sum *
                   (weight_sum * weight_sum / weight_sq_sum),
               weight_sum * weight_sum / weight_sq_sum),
      weight_sum * weight_sum / weight_sq_sum);
  EXPECT_EQ(ci.lower, expected.lower);
  EXPECT_EQ(ci.upper, expected.upper);
}

TEST(LogicalErrorAccumulatorTest, NoiselessMemoryNeverFails) {
  MemoryWorkloadConfig cfg;
  cfg.code = "repetition";
  cfg.distance = 3;
  cfg.rounds = 2;
  cfg.noise = 0.0;
  cfg.readout_noise = 0.0;
  const MemoryWorkload workload = qec::make_memory_workload(cfg);
  const auto decoder =
      qec::make_shot_decoder("union-find", workload.experiment);
  qec::MemoryRunConfig run;
  run.strategy_config.nsamples = 10;
  run.strategy_config.nshots = 50;
  const qec::LogicalErrorPoint point =
      qec::run_memory_point(workload, *decoder, run);
  EXPECT_GT(point.shots, 0u);
  EXPECT_EQ(point.failures, 0u);
  EXPECT_EQ(point.logical_error_rate, 0.0);
}

// Sub-threshold suppression, the physics the bench curve shows: below
// threshold the d=5 repetition memory outperforms d=3 at equal noise.
TEST(LogicalErrorRateTest, DistanceFiveBeatsDistanceThreeBelowThreshold) {
  const double noise = 0.025;
  qec::MemoryRunConfig run;
  run.strategy_config.nsamples = 1500;
  run.strategy_config.nshots = 20;
  run.backend = "stabilizer";
  run.seed = 321;
  const auto rate = [&](unsigned distance) {
    const MemoryWorkload workload = repetition_workload(distance, noise);
    const auto decoder =
        qec::make_shot_decoder("st-union-find", workload.experiment);
    return qec::run_memory_point(workload, *decoder, run);
  };
  const qec::LogicalErrorPoint d3 = rate(3);
  const qec::LogicalErrorPoint d5 = rate(5);
  EXPECT_GT(d3.failures, 0u);  // enough statistics to mean something
  EXPECT_LT(d5.logical_error_rate, d3.logical_error_rate);
}

TEST(MemoryBasisTest, XBasisMemoryIsNoiselesslySilent) {
  // |+_L⟩ prepared, extracted and read out in the X basis: without noise
  // every syndrome is trivial and the logical X value is +1 (bit 0).
  const qec::CssCode code = qec::rotated_surface_code(3);
  const qec::MemoryExperiment exp =
      qec::make_memory_experiment(code, 1, CssBasis::kX);
  Pipeline pipeline(NoiseModel().apply(exp.circuit));
  pts::StrategyConfig cfg;
  cfg.nsamples = 4;
  cfg.nshots = 32;
  pipeline.strategy("probabilistic", cfg).backend("stabilizer").seed(5);
  const RunResult run = pipeline.run();
  const auto decoder = qec::make_decoder("union-find", code, CssBasis::kX);
  std::uint64_t shots = 0;
  for (const be::TrajectoryBatch& batch : run.result.batches)
    for (const std::uint64_t record : batch.records) {
      ++shots;
      for (unsigned r = 0; r < exp.rounds; ++r)
        for (unsigned a = 0; a < exp.ancillas_per_round; ++a)
          EXPECT_EQ((record >> exp.ancilla_bit(r, a)) & 1ULL, 0u);
      EXPECT_EQ(qec::decode_memory_shot(exp, *decoder, record), 0u);
    }
  EXPECT_GT(shots, 0u);
}

}  // namespace
}  // namespace ptsbe

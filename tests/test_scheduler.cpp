// The shared-prefix trajectory scheduler's reproducibility contract:
// records, realised probabilities and dataset bytes must be **bit-for-bit
// identical** to the independent schedule — across every registered PTS
// strategy, across the forkable backends, under multi-threaded scheduling,
// with gate fusion on, and through unrealizable-branch specs. This is the
// acceptance gate that makes the scheduler a pure optimisation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ptsbe/common/aligned.hpp"
#include "ptsbe/common/bits.hpp"
#include "ptsbe/common/inverse_cdf.hpp"
#include "ptsbe/core/dataset.hpp"
#include "ptsbe/core/pipeline.hpp"
#include "ptsbe/core/prefix_scheduler.hpp"
#include "ptsbe/densmat/density_matrix.hpp"
#include "ptsbe/kernels/kernel_set.hpp"
#include "ptsbe/noise/channels.hpp"
#include "ptsbe/statevector/statevector.hpp"
#include "temp_file.hpp"

namespace ptsbe {
namespace {

NoisyCircuit ghz_program(unsigned n = 5, double p = 0.03) {
  Circuit c(n);
  c.h(0);
  for (unsigned q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  c.measure_all();
  NoiseModel noise;
  noise.add_all_gate_noise(channels::depolarizing(p));
  noise.add_measurement_noise(channels::bit_flip(p / 2));
  return noise.apply(c);
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(is)) << path;
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

/// Bitwise equality — EXPECT_DOUBLE_EQ would allow 4 ulps; the contract is
/// exact.
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

be::Result run_schedule(const NoisyCircuit& noisy,
                        const std::vector<TrajectorySpec>& specs,
                        be::Schedule schedule, const std::string& backend,
                        std::size_t threads = 1, bool fuse = false) {
  be::Options options;
  options.backend = backend;
  options.schedule = schedule;
  options.threads = threads;
  options.config.fuse_gates = fuse;
  return be::execute(noisy, specs, options);
}

TEST(SharedPrefixScheduler, IdenticalAcrossAllRegisteredStrategies) {
  const NoisyCircuit noisy = ghz_program();
  for (const std::string& strategy : pts::StrategyRegistry::instance().names()) {
    pts::StrategyConfig cfg;
    cfg.nsamples = 300;
    cfg.nshots = 50;
    cfg.probability_cutoff = 1e-5;
    cfg.p_min = 1e-6;
    cfg.p_max = 1e-1;
    Pipeline pipeline(noisy);
    pipeline.strategy(strategy, cfg).seed(17);
    const std::vector<TrajectorySpec> specs = pipeline.sample();
    ASSERT_FALSE(specs.empty()) << strategy;
    const be::Result independent = run_schedule(
        noisy, specs, be::Schedule::kIndependent, "statevector");
    const be::Result shared = run_schedule(
        noisy, specs, be::Schedule::kSharedPrefix, "statevector");
    SCOPED_TRACE("strategy=" + strategy);
    expect_results_identical(independent, shared);
  }
}

TEST(SharedPrefixScheduler, IdenticalAcrossForkableBackends) {
  const NoisyCircuit noisy = ghz_program();
  RngStream rng(23);
  pts::Options opt;
  opt.nsamples = 200;
  opt.nshots = 40;
  opt.merge_duplicates = true;
  const auto specs = pts::sample_probabilistic(noisy, opt, rng);
  ASSERT_GT(specs.size(), 4u);
  for (const char* backend_name : {"statevector", "densmat", "mps"}) {
    const std::string backend(backend_name);
    SCOPED_TRACE("backend=" + backend);
    expect_results_identical(
        run_schedule(noisy, specs, be::Schedule::kIndependent, backend),
        run_schedule(noisy, specs, be::Schedule::kSharedPrefix, backend));
  }
}

TEST(SharedPrefixScheduler, IdenticalUnderMultiDeviceAndFusion) {
  const NoisyCircuit noisy = ghz_program(6);
  RngStream rng(29);
  pts::Options opt;
  opt.nsamples = 400;
  opt.nshots = 25;
  opt.merge_duplicates = true;
  const auto specs = pts::sample_probabilistic(noisy, opt, rng);
  const be::Result reference =
      run_schedule(noisy, specs, be::Schedule::kIndependent, "statevector");
  expect_results_identical(
      reference, run_schedule(noisy, specs, be::Schedule::kSharedPrefix,
                              "statevector", 4));
  // Fusion reassociates the gate products identically on both schedules,
  // so fused-vs-fused stays bitwise identical too.
  expect_results_identical(
      run_schedule(noisy, specs, be::Schedule::kIndependent, "statevector", 1,
                   true),
      run_schedule(noisy, specs, be::Schedule::kSharedPrefix, "statevector", 4,
                   true));
}

TEST(SharedPrefixScheduler, HandlesUnrealizableBranchSpecs) {
  // Amplitude damping: branch 1 is the decay K₁. After h(0), cx(0,1) both
  // qubits can decay once; forcing a second decay on the same site chain
  // makes the spec unrealizable at execution time.
  Circuit c(2);
  c.h(0).cx(0, 1).measure_all();
  NoiseModel nm;
  nm.add_all_gate_noise(channels::amplitude_damping(0.3));
  const NoisyCircuit noisy = nm.apply(c);
  ASSERT_GE(noisy.num_sites(), 3u);

  std::vector<TrajectorySpec> specs;
  TrajectorySpec clean;
  clean.shots = 200;
  clean.nominal_probability = 0.5;
  specs.push_back(clean);
  TrajectorySpec one_decay;
  one_decay.branches = {{1, 1}};
  one_decay.shots = 200;
  one_decay.nominal_probability = 0.2;
  specs.push_back(one_decay);
  // Decay qubit 0 right after h(0) (collapsing it to |0⟩ before the cx),
  // then demand a second decay of qubit 0 after the cx — zero probability.
  TrajectorySpec double_decay;
  double_decay.branches = {{0, 1}, {1, 1}};
  double_decay.shots = 200;
  double_decay.nominal_probability = 0.05;
  specs.push_back(double_decay);

  const be::Result independent =
      run_schedule(noisy, specs, be::Schedule::kIndependent, "statevector");
  const be::Result shared =
      run_schedule(noisy, specs, be::Schedule::kSharedPrefix, "statevector");
  expect_results_identical(independent, shared);
  EXPECT_EQ(shared.batches[2].realized_probability, 0.0);
  EXPECT_TRUE(shared.batches[2].records.empty());
  EXPECT_GT(shared.batches[1].realized_probability, 0.0);
}

TEST(SharedPrefixScheduler, StreamWriterBytesMatchIndependentSchedule) {
  const NoisyCircuit noisy = ghz_program();
  RngStream rng(31);
  pts::Options opt;
  opt.nsamples = 250;
  opt.nshots = 30;
  opt.merge_duplicates = true;
  const auto specs = pts::sample_probabilistic(noisy, opt, rng);

  const auto stream_to = [&](be::Schedule schedule, const std::string& path) {
    be::Options options;
    options.schedule = schedule;
    dataset::StreamWriter writer(path);
    std::vector<be::TrajectoryBatch> batches(specs.size());
    (void)be::execute_streaming(noisy, specs, options,
                                [&](be::TrajectoryBatch&& batch) {
                                  batches[batch.spec_index] = std::move(batch);
                                });
    // Restore spec order before writing: the schedules emit in different
    // orders (completion vs trie DFS) and the byte contract is about
    // content, not scheduling.
    for (const be::TrajectoryBatch& batch : batches) writer.append(batch);
    writer.close();
  };
  const auto independent_path = test::temp_file("sched_indep.bin");
  const auto shared_path = test::temp_file("sched_shared.bin");
  stream_to(be::Schedule::kIndependent, independent_path);
  stream_to(be::Schedule::kSharedPrefix, shared_path);
  const std::string independent_bytes = slurp(independent_path);
  ASSERT_FALSE(independent_bytes.empty());
  EXPECT_EQ(independent_bytes, slurp(shared_path));
}

TEST(SharedPrefixScheduler, StreamingDeliversEverySpecExactlyOnce) {
  const NoisyCircuit noisy = ghz_program();
  RngStream rng(37);
  pts::Options opt;
  opt.nsamples = 150;
  opt.nshots = 10;
  opt.merge_duplicates = true;
  const auto specs = pts::sample_probabilistic(noisy, opt, rng);
  be::Options options;
  options.schedule = be::Schedule::kSharedPrefix;
  options.threads = 4;
  std::vector<std::size_t> deliveries(specs.size(), 0);
  const be::StreamSummary summary = be::execute_streaming(
      noisy, specs, options, [&](be::TrajectoryBatch&& batch) {
        ASSERT_LT(batch.spec_index, specs.size());
        deliveries[batch.spec_index] += 1;
      });
  for (std::size_t i = 0; i < specs.size(); ++i)
    EXPECT_EQ(deliveries[i], 1u) << "spec " << i;
  EXPECT_EQ(summary.num_batches, specs.size());
  EXPECT_EQ(summary.total_shots, total_shots(specs));
}

TEST(SharedPrefixScheduler, StabilizerBackendSharedPrefixMatchesIndependent) {
  Circuit c(3);
  c.h(0).cx(0, 1).cx(1, 2).measure_all();
  NoiseModel nm;
  nm.add_all_gate_noise(channels::bit_flip(0.05));
  const NoisyCircuit noisy = nm.apply(c);
  RngStream rng(41);
  pts::Options opt;
  opt.nsamples = 100;
  opt.nshots = 20;
  opt.merge_duplicates = true;
  const auto specs = pts::sample_probabilistic(noisy, opt, rng);
  const be::Result independent =
      run_schedule(noisy, specs, be::Schedule::kIndependent, "stabilizer");
  const be::Result shared =
      run_schedule(noisy, specs, be::Schedule::kSharedPrefix, "stabilizer");
  expect_results_identical(independent, shared);
}

TEST(SharedPrefixScheduler, PipelineScheduleKnobRoundTrips) {
  const NoisyCircuit noisy = ghz_program();
  pts::StrategyConfig cfg;
  cfg.nsamples = 120;
  cfg.nshots = 16;
  const RunResult independent =
      Pipeline(noisy).strategy("probabilistic", cfg).seed(7).run();
  const RunResult shared = Pipeline(noisy)
                               .strategy("probabilistic", cfg)
                               .schedule(be::Schedule::kSharedPrefix)
                               .seed(7)
                               .run();
  expect_results_identical(independent.result, shared.result);
}

TEST(ScheduleNames, RoundTripAndReject) {
  EXPECT_EQ(be::schedule_from_string("independent"), be::Schedule::kIndependent);
  EXPECT_EQ(be::schedule_from_string("shared-prefix"),
            be::Schedule::kSharedPrefix);
  EXPECT_EQ(to_string(be::Schedule::kSharedPrefix), "shared-prefix");
  EXPECT_EQ(to_string(be::Schedule::kIndependent), "independent");
  EXPECT_THROW((void)be::schedule_from_string("bogus"), precondition_error);
}

TEST(UniqueShotFraction, SinglePassMatchesDefinition) {
  be::Result result;
  be::TrajectoryBatch a;
  a.records = {1, 2, 2, 3};
  be::TrajectoryBatch b;
  b.records = {3, 4};
  result.batches = {a, b};
  EXPECT_DOUBLE_EQ(result.unique_shot_fraction(), 4.0 / 6.0);
}

TEST(UniqueShotFraction, EmptyResultsReturnZeroNotNaN) {
  // No batches at all.
  EXPECT_DOUBLE_EQ(be::Result{}.unique_shot_fraction(), 0.0);
  // Batches exist but every one is unrealizable (zero records): the shot
  // total is 0 and the fraction must be 0.0, not 0/0 = NaN.
  be::Result unrealizable_only;
  be::TrajectoryBatch dud;
  dud.realized_probability = 0.0;
  unrealizable_only.batches = {dud, dud};
  EXPECT_DOUBLE_EQ(unrealizable_only.unique_shot_fraction(), 0.0);
}

// ---------------------------------------------------------------------------
// Multi-threaded determinism matrix: for every registered backend ×
// registered strategy × schedule × fusion setting, executing with threads=1
// must produce batches — and dataset bytes — bit-identical to threads ∈
// {2, hardware_concurrency}. This is the acceptance gate that makes the
// work-stealing executor a pure optimisation.
// ---------------------------------------------------------------------------

std::vector<std::size_t> matrix_thread_counts() {
  std::vector<std::size_t> counts = {2};
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  if (hw != 1 && hw != 2) counts.push_back(hw);
  return counts;
}

TEST(DeterminismMatrix, ThreadCountNeverChangesRecordsOrBytes) {
  const NoisyCircuit noisy = ghz_program(5, 0.03);
  const std::vector<std::size_t> thread_counts = matrix_thread_counts();
  const auto ref_path = test::temp_file("matrix_ref.bin");
  const auto got_path = test::temp_file("matrix_got.bin");
  for (const std::string& backend : BackendRegistry::instance().names()) {
    if (backend == "tensornet") continue;  // alias of "mps"
    for (const std::string& strategy :
         pts::StrategyRegistry::instance().names()) {
      pts::StrategyConfig cfg;
      cfg.nsamples = 150;
      cfg.nshots = 16;
      cfg.probability_cutoff = 1e-5;
      cfg.p_min = 1e-6;
      cfg.p_max = 1e-1;
      Pipeline pipeline(noisy);
      pipeline.strategy(strategy, cfg).seed(17);
      const std::vector<TrajectorySpec> specs = pipeline.sample();
      ASSERT_FALSE(specs.empty()) << strategy;
      for (const be::Schedule schedule :
           {be::Schedule::kIndependent, be::Schedule::kSharedPrefix}) {
        for (const bool fuse : {false, true}) {
          be::Options options;
          options.backend = backend;
          options.schedule = schedule;
          options.config.fuse_gates = fuse;
          options.threads = 1;
          const be::Result reference = be::execute(noisy, specs, options);
          dataset::write_binary(ref_path, reference);
          const std::string ref_bytes = slurp(ref_path);
          ASSERT_FALSE(ref_bytes.empty());
          for (const std::size_t threads : thread_counts) {
            SCOPED_TRACE("backend=" + backend + " strategy=" + strategy +
                         " schedule=" + to_string(schedule) +
                         " fuse=" + std::to_string(fuse) +
                         " threads=" + std::to_string(threads));
            options.threads = threads;
            const be::Result result = be::execute(noisy, specs, options);
            expect_results_identical(reference, result);
            dataset::write_binary(got_path, result);
            EXPECT_EQ(ref_bytes, slurp(got_path));
          }
        }
      }
    }
  }
}

TEST(DeterminismMatrix, StreamingThreadsMatchMaterialisedReference) {
  // The streaming path shares the executor with execute(), but pin it
  // separately: batches delivered out of order under threads>1 must carry
  // the same payloads at their spec indices.
  const NoisyCircuit noisy = ghz_program(5, 0.03);
  RngStream rng(53);
  pts::Options opt;
  opt.nsamples = 200;
  opt.nshots = 25;
  opt.merge_duplicates = true;
  const auto specs = pts::sample_probabilistic(noisy, opt, rng);
  ASSERT_GT(specs.size(), 4u);
  for (const be::Schedule schedule :
       {be::Schedule::kIndependent, be::Schedule::kSharedPrefix}) {
    be::Options options;
    options.schedule = schedule;
    options.threads = 1;
    const be::Result reference = be::execute(noisy, specs, options);
    options.threads = 4;
    be::Result streamed;
    streamed.batches.resize(specs.size());
    const be::StreamSummary summary = be::execute_streaming(
        noisy, specs, options, [&](be::TrajectoryBatch&& batch) {
          streamed.batches[batch.spec_index] = std::move(batch);
        });
    SCOPED_TRACE("schedule=" + to_string(schedule));
    EXPECT_EQ(summary.num_batches, specs.size());
    expect_results_identical(reference, streamed);
  }
}

/// `noisy`'s records, realised probabilities and dataset bytes at threads
/// {1, 2, hw} equal the one-worker run's, under both schedules.
void expect_split_preparation_ignores_threads(const NoisyCircuit& noisy) {
  ASSERT_FALSE(noisy.all_unitary_mixture());
  RngStream rng(61);
  pts::Options opt;
  opt.nsamples = 12;
  opt.nshots = 64;
  const auto specs = pts::sample_probabilistic(noisy, opt, rng);
  const auto ref_path = test::temp_file("split_ref.bin");
  const auto got_path = test::temp_file("split_got.bin");
  for (const be::Schedule schedule :
       {be::Schedule::kIndependent, be::Schedule::kSharedPrefix}) {
    const be::Result reference =
        run_schedule(noisy, specs, schedule, "statevector", 1);
    dataset::write_binary(ref_path, reference);
    const std::string ref_bytes = slurp(ref_path);
    std::vector<std::size_t> thread_counts = matrix_thread_counts();
    thread_counts.insert(thread_counts.begin(), 1);
    for (const std::size_t threads : thread_counts) {
      SCOPED_TRACE("schedule=" + to_string(schedule) +
                   " threads=" + std::to_string(threads));
      const be::Result result =
          run_schedule(noisy, specs, schedule, "statevector", threads);
      expect_results_identical(reference, result);
      dataset::write_binary(got_path, result);
      EXPECT_EQ(ref_bytes, slurp(got_path));
    }
  }
}

// Above 2^14 amplitudes a preparation's sweeps and its general-Kraus sites
// (their fused sweeps and rescales) split into ranges that idle workers
// take. Their bits, and so every realized_probability and dataset byte,
// must still not depend on the worker count or on who ran a range. At 15
// qubits with damping after every gate, runs are a gate's one or two sites
// and the sweep is one unit; at 17 qubits with damping on every readout,
// the readout sites are one run and each sweep is two units.
TEST(SplitPreparation, GeneralKrausAboveOneSliceIgnoresThreadCount) {
  for (const unsigned n : {15u, 17u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Circuit c(n);
    for (unsigned layer = 0; layer < 2; ++layer) {
      for (unsigned q = 0; q < n; ++q) c.rx(q, 0.3 + 0.1 * ((q + layer) % 7));
      for (unsigned q = layer % 2; q + 1 < n; q += 2) c.cx(q, q + 1);
    }
    c.measure_all();
    NoiseModel noise;
    if (n == 15) {
      noise.add_all_gate_noise(channels::amplitude_damping(0.05));
    } else {
      noise.add_all_gate_noise(channels::depolarizing(0.02));
      noise.add_measurement_noise(channels::amplitude_damping(0.1));
    }
    expect_split_preparation_ignores_threads(noise.apply(c));
  }
}

// ---------------------------------------------------------------------------
// Split leaf sampling: a spec whose budget exceeds one chunk is drawn by
// several executor tasks. Its records must equal the sequential sampler —
// sorted_uniforms, one cumulative pass over the basis masses, then
// per-shot extract_bits — at every thread count, under both schedules and
// on both dense backends, and its spec-ordered dataset bytes must not
// depend on the thread count. The reference prepares each spec op by op on
// the concrete state, so it also checks the plan walk's preparation and
// realised probabilities (unitary mixtures and general Kraus) independently
// of both schedules.
// ---------------------------------------------------------------------------

/// Four qubits measured in the order 2, 0, 3 (qubit 1 unmeasured), so a
/// record is a permuted, partial extract of the basis index.
NoisyCircuit split_program() {
  Circuit c(4);
  c.h(0).ry(1, 0.7).cx(0, 2).h(3).ry(2, 0.4);
  c.measure(2).measure(0).measure(3);
  NoiseModel noise;
  noise.add_all_gate_noise(channels::bit_flip(0.05));
  return noise.apply(c);
}

/// Amplitude damping after every gate, measured in the order 2, 0, 1: the
/// general-Kraus input, whose realised probabilities depend on the state.
/// Sites 2 and 4 both act on qubit 1 (after the two cx gates).
NoisyCircuit damped_program() {
  Circuit c(3);
  c.h(0).cx(0, 1).rx(2, 0.9).cx(1, 2);
  c.measure(2).measure(0).measure(1);
  NoiseModel noise;
  noise.add_all_gate_noise(channels::amplitude_damping(0.3));
  return noise.apply(c);
}

/// 18 qubits, so the walk's spans cross 2^16-amplitude tiles: three
/// brickwork layers of dense rotations and cx/cz bricks, depolarizing after
/// every gate and amplitude damping on readout.
NoisyCircuit tiled_program() {
  const unsigned n = 18;
  Circuit c(n);
  for (unsigned layer = 0; layer < 3; ++layer) {
    for (unsigned q = 0; q < n; ++q) {
      const double angle = 0.3 + 0.1 * ((q + layer) % 7);
      layer % 2 == 0 ? c.rx(q, angle) : c.ry(q, angle);
    }
    for (unsigned q = layer % 2; q + 1 < n; q += 2)
      layer % 2 == 0 ? c.cx(q, q + 1) : c.cz(q, q + 1);
  }
  c.measure_all();
  NoiseModel noise;
  noise.add_all_gate_noise(channels::depolarizing(0.01));
  noise.add_measurement_noise(channels::amplitude_damping(0.02));
  return noise.apply(c);
}

/// 18 qubits measured in order with amplitude damping on every readout, so
/// the readout sites are one run of general-Kraus sites; qubit 7 has no
/// gate and stays |0⟩, so its decay is exactly zero. Dense rotations and
/// cx bricks on the other qubits, depolarizing after every gate.
NoisyCircuit readout_run_program() {
  const unsigned n = 18, idle = 7;
  Circuit c(n);
  for (unsigned layer = 0; layer < 2; ++layer) {
    for (unsigned q = 0; q < n; ++q)
      if (q != idle) c.ry(q, 0.4 + 0.15 * ((q + 2 * layer) % 9));
    for (unsigned q = layer % 2; q + 1 < n; q += 2)
      if (q != idle && q + 1 != idle) c.cx(q, q + 1);
  }
  c.measure_all();
  NoiseModel noise;
  noise.add_all_gate_noise(channels::depolarizing(0.01));
  noise.add_measurement_noise(channels::amplitude_damping(0.05));
  return noise.apply(c);
}

/// The trajectory `assignment` selects, prepared gate by gate and branch by
/// branch: its basis masses — the masses the sequential sampler walks
/// (|a_i|², max(0, Re ρ_ii)) — and its realised probability, multiplied in
/// program order. A general-Kraus branch whose norm ‖Kψ‖² falls under
/// `be::kUnrealizableCut` makes the trajectory unrealizable (probability 0).
struct ReferenceLeaf {
  std::vector<double> mass;
  double realized = 1.0;
};

/// The statevector leg: amplitudes prepared with the kernels' gate apply,
/// and each general-Kraus site as three sweeps written out — K, the |a|² of
/// each 2^14-amplitude block in index order with the block sums added in
/// block order, then v *= 1/√p — whose bits the walk must reproduce, a
/// diagonal K's site in one fused sweep.
struct ReferenceAmplitudes {
  explicit ReferenceAmplitudes(unsigned n) : amp(std::uint64_t{1} << n) {
    amp[0] = 1.0;
  }
  void apply_gate(const Matrix& m, std::span<const unsigned> qubits) {
    kernels::apply_gate(kernels::active(), amp.data(), amp.size(), m, qubits);
  }
  /// ‖Kψ‖², or 0 under the cut, when the state is left to be discarded.
  double kraus_branch(const Matrix& k, std::span<const unsigned> qubits) {
    apply_gate(k, qubits);
    const std::uint64_t block = std::min<std::uint64_t>(amp.size(), 1 << 14);
    double p = 0.0;
    for (std::uint64_t first = 0; first < amp.size(); first += block) {
      double sum = 0.0;
      for (std::uint64_t i = first; i < first + block; ++i)
        sum += std::norm(amp[i]);
      p += sum;
    }
    if (p < be::kUnrealizableCut) return 0.0;
    const double inv = 1.0 / std::sqrt(p);
    for (cplx& v : amp) v *= inv;
    return p;
  }
  AlignedVector<cplx> amp;
};

/// The density-matrix leg: its own Kraus op, with the cut taken on
/// `branch_probability`.
struct ReferenceDensity {
  explicit ReferenceDensity(unsigned n) : dm(n) {}
  void apply_gate(const Matrix& m, std::span<const unsigned> qubits) {
    dm.apply_gate(m, qubits);
  }
  double kraus_branch(const Matrix& k, std::span<const unsigned> qubits) {
    if (dm.branch_probability(k, qubits) < be::kUnrealizableCut) return 0.0;
    return dm.apply_kraus_branch(k, qubits);
  }
  DensityMatrix dm;
};

ReferenceLeaf reference_leaf(const NoisyCircuit& noisy,
                             const std::vector<std::size_t>& assignment,
                             const std::string& backend) {
  ReferenceLeaf leaf;
  const auto drive = [&](auto& state) {
    const auto apply_sites = [&](const std::vector<std::size_t>& ids) {
      for (std::size_t id : ids) {
        if (leaf.realized == 0.0) return;
        const NoiseSite& site = noisy.sites()[id];
        const KrausChannel& ch = *site.channel;
        const std::size_t branch = assignment[id];
        if (ch.is_unitary_mixture()) {
          state.apply_gate(ch.unitary(branch), site.qubits);
          leaf.realized *= ch.nominal_probabilities()[branch];
        } else {
          leaf.realized *= state.kraus_branch(ch.kraus(branch), site.qubits);
        }
      }
    };
    apply_sites(noisy.sites_after(NoiseSite::kBeforeCircuit));
    const auto& ops = noisy.circuit().ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind == OpKind::kGate)
        state.apply_gate(ops[i].matrix, ops[i].qubits);
      apply_sites(noisy.sites_after(i));
    }
  };
  if (backend == "densmat") {
    ReferenceDensity ref(noisy.num_qubits());
    drive(ref);
    for (std::uint64_t i = 0; i < ref.dm.dim(); ++i)
      leaf.mass.push_back(std::max(0.0, ref.dm.element(i, i).real()));
  } else {
    ReferenceAmplitudes ref(noisy.num_qubits());
    drive(ref);
    for (const cplx& a : ref.amp) leaf.mass.push_back(std::norm(a));
  }
  return leaf;
}

/// The sequential sampler, written out: sorted uniforms, one cumulative
/// pass (the numeric tail lands on the last bin), then extract_bits on
/// every shot.
std::vector<std::uint64_t> reference_records(
    const std::vector<double>& mass, std::uint64_t count, RngStream rng,
    const std::vector<unsigned>& measured) {
  std::vector<std::uint64_t> shots(count);
  if (count == 0) return shots;
  const std::vector<double> u = rng.sorted_uniforms(count);
  std::size_t ptr = 0;
  double acc = 0.0;
  for (std::uint64_t i = 0; i < mass.size() && ptr < count; ++i) {
    acc += mass[i];
    while (ptr < count && u[ptr] < acc) shots[ptr++] = i;
  }
  for (; ptr < count; ++ptr) shots[ptr] = mass.size() - 1;
  for (std::uint64_t& shot : shots) shot = extract_bits(shot, measured);
  return shots;
}

/// `specs` on `noisy` against the reference: records and realised
/// probabilities at every thread count, under both schedules and on each of
/// `backends`, and spec-ordered dataset bytes that do not depend on the
/// thread count. The last `unrealizable` specs must be unrealizable and the
/// others realizable, so the input exercises what it claims to.
void expect_matches_reference(
    const NoisyCircuit& noisy, std::vector<TrajectorySpec> specs,
    std::size_t unrealizable,
    const std::vector<std::string>& backends = {"statevector", "densmat"}) {
  refresh_probabilities(noisy, specs);
  const std::vector<unsigned> measured = noisy.circuit().measured_qubits();
  std::vector<std::size_t> thread_counts = {1, 2};
  const std::size_t hw = std::max(std::thread::hardware_concurrency(), 1u);
  if (hw > 2) thread_counts.push_back(hw);
  const auto ref_path = test::temp_file("split_ref.bin");
  const auto got_path = test::temp_file("split_got.bin");
  for (const std::string& backend : backends) {
    be::Options options;
    options.backend = backend;
    const RngStream master(options.seed);
    std::vector<ReferenceLeaf> leaves;
    std::vector<std::vector<std::uint64_t>> expected;
    for (std::size_t t = 0; t < specs.size(); ++t) {
      leaves.push_back(
          reference_leaf(noisy, full_assignment(noisy, specs[t]), backend));
      EXPECT_EQ(leaves[t].realized > 0.0, t + unrealizable < specs.size())
          << "spec " << t;
      expected.push_back(
          leaves[t].realized == 0.0
              ? std::vector<std::uint64_t>{}
              : reference_records(leaves[t].mass, specs[t].shots,
                                  master.substream(t), measured));
    }
    for (const be::Schedule schedule :
         {be::Schedule::kIndependent, be::Schedule::kSharedPrefix}) {
      options.schedule = schedule;
      std::string first_bytes;
      for (const std::size_t threads : thread_counts) {
        SCOPED_TRACE("backend=" + backend + " schedule=" + to_string(schedule) +
                     " threads=" + std::to_string(threads));
        options.threads = threads;
        const be::Result result = be::execute(noisy, specs, options);
        ASSERT_EQ(result.batches.size(), specs.size());
        for (std::size_t t = 0; t < specs.size(); ++t) {
          EXPECT_EQ(result.batches[t].records, expected[t]) << "spec " << t;
          EXPECT_EQ(result.batches[t].realized_probability, leaves[t].realized)
              << "spec " << t;
        }
        dataset::write_binary(threads == 1 ? ref_path : got_path, result);
        if (threads == 1)
          first_bytes = slurp(ref_path);
        else
          EXPECT_EQ(slurp(got_path), first_bytes);
      }
    }
  }
}

TEST(SplitLeafSampling, RecordsMatchSequentialReferenceAtEveryThreadCount) {
  const std::uint64_t chunk = kSampleChunk;
  const auto spec = [](std::vector<BranchChoice> branches,
                       std::uint64_t shots) {
    TrajectorySpec s;
    s.branches = std::move(branches);
    s.shots = shots;
    return s;
  };
  {
    SCOPED_TRACE("bit flips");
    const NoisyCircuit noisy = split_program();
    ASSERT_GE(noisy.num_sites(), 2u);
    ASSERT_EQ(noisy.circuit().measured_qubits(),
              (std::vector<unsigned>{2, 0, 3}));
    // A flip on site 1; the error-free assignment appears three times, so
    // one trie leaf samples inline and split budgets from a shared state.
    const std::size_t flip =
        noisy.sites()[1].channel->default_branch() == 0 ? 1 : 0;
    expect_matches_reference(
        noisy,
        {spec({}, 0), spec({{1, flip}}, 1), spec({}, chunk),
         spec({{1, flip}}, chunk + 1), spec({}, 3 * chunk + 7)},
        0);
  }
  {
    SCOPED_TRACE("amplitude damping");
    const NoisyCircuit noisy = damped_program();
    ASSERT_EQ(noisy.num_sites(), 6u);
    ASSERT_EQ(noisy.circuit().measured_qubits(),
              (std::vector<unsigned>{2, 0, 1}));
    // One decay at each site, an error-free spec that splits, and a second
    // decay of qubit 1 (sites 2 and 4), which is unrealizable.
    const std::size_t decay =
        noisy.sites()[0].channel->default_branch() == 0 ? 1 : 0;
    std::vector<TrajectorySpec> specs;
    for (std::size_t site = 0; site < noisy.num_sites(); ++site)
      specs.push_back(spec({{site, decay}}, 100 + site));
    specs.push_back(spec({}, chunk + 3));
    specs.push_back(spec({{2, decay}, {4, decay}}, 50));
    expect_matches_reference(noisy, std::move(specs), 1);
  }
  {
    // Statevector only: the density matrix stops at 13 qubits.
    SCOPED_TRACE("18 qubits across tiles");
    const NoisyCircuit noisy = tiled_program();
    const auto& sites = noisy.sites();
    // The first and last depolarizing site on `q`: after its first and
    // its last gate.
    const auto depolarizing_on = [&](unsigned q, bool last) {
      std::size_t found = sites.size();
      for (const NoiseSite& site : sites)
        if (site.channel->is_unitary_mixture() && site.qubits[0] == q) {
          found = site.index;
          if (!last) break;
        }
      EXPECT_LT(found, sites.size()) << "qubit " << q;
      return found;
    };
    std::size_t readout = sites.size();
    for (const NoiseSite& site : sites)
      if (!site.channel->is_unitary_mixture() && site.qubits[0] == 9)
        readout = site.index;
    ASSERT_LT(readout, sites.size());
    // X, Y and Z (branches 1-3) early and late on a low and a high qubit,
    // so shared-prefix forks fall inside spans; one readout decay; the
    // error-free spec.
    std::vector<TrajectorySpec> specs;
    for (unsigned q : {1u, 17u})
      for (bool late : {false, true})
        for (std::size_t pauli = 1; pauli <= 3; ++pauli)
          specs.push_back(
              spec({{depolarizing_on(q, late), pauli}}, 40 + specs.size()));
    specs.push_back(spec({{readout, 1}}, 60));
    specs.push_back(spec({}, 3000));
    expect_matches_reference(noisy, std::move(specs), 0, {"statevector"});
  }
  {
    // Statevector only. The shared-prefix walk forks at the first readout
    // where the specs differ, inside the run of readout sites, and the
    // decay of idle qubit 7 is zero mid-run, at threads {1, 2, hw}.
    SCOPED_TRACE("18 qubits with a run of readout sites");
    const NoisyCircuit noisy = readout_run_program();
    std::vector<std::size_t> readout(noisy.num_qubits());
    for (const NoiseSite& site : noisy.sites())
      if (!site.channel->is_unitary_mixture())
        readout[site.qubits[0]] = site.index;
    const std::size_t decay =
        noisy.sites()[readout[0]].channel->default_branch() == 0 ? 1 : 0;
    std::vector<TrajectorySpec> specs;
    for (unsigned q : {0u, 3u, 9u, 16u, 17u})
      specs.push_back(spec({{readout[q], decay}}, 30 + specs.size()));
    specs.push_back(spec({{readout[3], decay}, {readout[12], decay}}, 45));
    specs.push_back(spec({{readout[2], decay}, {readout[5], decay}}, 47));
    specs.push_back(spec({}, 500));
    specs.push_back(spec({{readout[2], decay}, {readout[7], decay}}, 20));
    expect_matches_reference(noisy, std::move(specs), 1, {"statevector"});
  }
}

}  // namespace
}  // namespace ptsbe

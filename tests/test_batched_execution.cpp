// Tests for Batched Execution: correctness of the PTS→BE pipeline against
// the exact density matrix, provenance metadata, dataset round trips, and
// backend equivalence.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ptsbe/common/parallel.hpp"
#include "ptsbe/core/batched_execution.hpp"
#include "ptsbe/core/dataset.hpp"
#include "ptsbe/core/pts.hpp"
#include "ptsbe/core/trajectory_executor.hpp"
#include "ptsbe/densmat/density_matrix.hpp"
#include "ptsbe/noise/channels.hpp"
#include "temp_file.hpp"

namespace ptsbe {
namespace {

NoisyCircuit noisy_ghz(unsigned n, double p) {
  Circuit c(n);
  c.h(0);
  for (unsigned q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  NoiseModel nm;
  nm.add_all_gate_noise(channels::depolarizing(p));
  return nm.apply(c);
}

double tvd_records(const std::vector<std::uint64_t>& records,
                   const std::vector<double>& weights,
                   const std::vector<double>& exact) {
  std::map<std::uint64_t, double> freq;
  double total = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    freq[records[i]] += weights[i];
    total += weights[i];
  }
  double d = 0;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    const auto it = freq.find(i);
    d += std::abs((it == freq.end() ? 0.0 : it->second / total) - exact[i]);
  }
  return d / 2;
}

TEST(BatchedExecution, NoiselessSingleSpecGivesExactState) {
  const NoisyCircuit noisy = noisy_ghz(3, 0.0);
  TrajectorySpec spec;
  spec.shots = 4000;
  spec.nominal_probability = 1.0;
  const auto result = be::execute(noisy, {spec});
  ASSERT_EQ(result.batches.size(), 1u);
  for (auto r : result.batches[0].records)
    EXPECT_TRUE(r == 0 || r == 0b111);
}

TEST(BatchedExecution, ProportionalPipelineConvergesToDensityMatrix) {
  // PTS (merged duplicates = draw-weighted) + BE must reproduce the exact
  // noisy distribution for a unitary-mixture program.
  const double p = 0.12;
  const NoisyCircuit noisy = noisy_ghz(3, p);
  DensityMatrix dm(3);
  dm.apply_noisy_circuit(noisy);

  RngStream rng(1);
  pts::Options opt;
  opt.nsamples = 20000;  // draw-count ∝ probability
  opt.nshots = 1;
  opt.merge_duplicates = true;
  const auto specs = pts::sample_probabilistic(noisy, opt, rng);
  const auto result = be::execute(noisy, specs);

  // Weight each record by 1 (each spec's shot count already reflects its
  // draw frequency).
  std::vector<std::uint64_t> records;
  std::vector<double> weights;
  for (const auto& batch : result.batches)
    for (auto r : batch.records) {
      records.push_back(r);
      weights.push_back(1.0);
    }
  EXPECT_LT(tvd_records(records, weights, dm.probabilities()), 0.03);
}

TEST(BatchedExecution, EnumeratedSpecsWithProbabilityWeights) {
  // Deterministic PTS: enumerate all trajectories above a tiny cutoff and
  // weight batches by nominal probability → exact distribution recovery.
  const double p = 0.1;
  const NoisyCircuit noisy = noisy_ghz(2, p);
  DensityMatrix dm(2);
  dm.apply_noisy_circuit(noisy);
  const auto specs = pts::enumerate_most_likely(noisy, 1e-8, 3000);
  const auto result = be::execute(noisy, specs);
  std::vector<std::uint64_t> records;
  std::vector<double> weights;
  for (const auto& batch : result.batches) {
    for (auto r : batch.records) {
      records.push_back(r);
      weights.push_back(batch.spec.nominal_probability);
    }
  }
  EXPECT_LT(tvd_records(records, weights, dm.probabilities()), 0.03);
}

TEST(BatchedExecution, GeneralKrausRealizedProbabilityRecorded) {
  Circuit c(1);
  c.h(0);
  NoiseModel nm;
  nm.add_all_gate_noise(channels::amplitude_damping(0.4));
  const NoisyCircuit noisy = nm.apply(c);
  TrajectorySpec decay;  // site 0 takes the decay branch (index 1)
  decay.branches = {{0, 1}};
  decay.shots = 100;
  const auto result = be::execute(noisy, {decay});
  ASSERT_EQ(result.batches.size(), 1u);
  // ⟨+|K1†K1|+⟩ = γ/2 = 0.2.
  EXPECT_NEAR(result.batches[0].realized_probability, 0.2, 1e-9);
  // After the decay branch the state is |0⟩.
  for (auto r : result.batches[0].records) EXPECT_EQ(r, 0u);
}

TEST(BatchedExecution, MpsBackendMatchesStatevectorBackend) {
  const NoisyCircuit noisy = noisy_ghz(4, 0.15);
  RngStream rng(2);
  pts::Options opt;
  opt.nsamples = 300;
  opt.nshots = 50;
  const auto specs = pts::sample_probabilistic(noisy, opt, rng);
  be::Options sv_opt, mps_opt;
  sv_opt.backend = "statevector";
  mps_opt.backend = "mps";
  const auto rv = be::execute(noisy, specs, sv_opt);
  const auto rm = be::execute(noisy, specs, mps_opt);
  ASSERT_EQ(rv.batches.size(), rm.batches.size());
  // Per-trajectory states are identical, so per-batch outcome frequencies
  // must agree statistically. Compare aggregate distributions.
  std::map<std::uint64_t, double> fv, fm;
  const double n = static_cast<double>(rv.total_shots());
  for (const auto& b : rv.batches)
    for (auto r : b.records) fv[r] += 1.0 / n;
  for (const auto& b : rm.batches)
    for (auto r : b.records) fm[r] += 1.0 / n;
  for (std::uint64_t i = 0; i < 16; ++i)
    EXPECT_NEAR(fv[i], fm[i], 0.03) << "index " << i;
}

TEST(BatchedExecution, ResolvedThreadsMapsKnobsToWorkerCount) {
  be::Options options;  // threads = 1
  EXPECT_EQ(be::resolved_threads(options), 1u);
  options.threads = 6;
  EXPECT_EQ(be::resolved_threads(options), 6u);
  // 0 = hardware concurrency, never less than one worker.
  options.threads = 0;
  EXPECT_GE(be::resolved_threads(options), 1u);
}

TEST(BatchedExecution, ThreadsMatchSingleThreadBitForBit) {
  const NoisyCircuit noisy = noisy_ghz(3, 0.1);
  RngStream rng(3);
  pts::Options opt;
  opt.nsamples = 100;
  opt.nshots = 20;
  const auto specs = pts::sample_probabilistic(noisy, opt, rng);
  be::Options one, eight;
  one.threads = 1;
  eight.threads = 8;
  const auto r1 = be::execute(noisy, specs, one);
  const auto r8 = be::execute(noisy, specs, eight);
  ASSERT_EQ(r1.batches.size(), r8.batches.size());
  for (std::size_t i = 0; i < r1.batches.size(); ++i) {
    EXPECT_EQ(r1.batches[i].records, r8.batches[i].records);
    EXPECT_EQ(r1.batches[i].realized_probability,
              r8.batches[i].realized_probability);
  }
}

TEST(BatchedExecution, ProvenanceSurvivesPipeline) {
  const NoisyCircuit noisy = noisy_ghz(3, 0.3);
  RngStream rng(4);
  pts::Options opt;
  opt.nsamples = 50;
  opt.nshots = 10;
  const auto specs = pts::sample_probabilistic(noisy, opt, rng);
  const auto result = be::execute(noisy, specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(result.batches[i].spec.same_assignment(specs[i]));
    EXPECT_EQ(result.batches[i].spec_index, i);
    // Error labels are reconstructible from the batch alone.
    const auto labels = describe_errors(noisy, result.batches[i].spec);
    EXPECT_EQ(labels.size(), specs[i].error_weight());
  }
}

TEST(BatchedExecution, UniqueFractionBounds) {
  const NoisyCircuit noisy = noisy_ghz(2, 0.0);
  TrajectorySpec spec;
  spec.shots = 1000;
  const auto result = be::execute(noisy, {spec});
  const double f = result.unique_shot_fraction();
  // GHZ(2) has only 2 outcomes → unique fraction = 2/1000.
  EXPECT_NEAR(f, 0.002, 1e-9);
}

TEST(Dataset, BinaryRoundTrip) {
  const NoisyCircuit noisy = noisy_ghz(3, 0.2);
  RngStream rng(5);
  pts::Options opt;
  opt.nsamples = 30;
  opt.nshots = 25;
  const auto specs = pts::sample_probabilistic(noisy, opt, rng);
  const auto result = be::execute(noisy, specs);
  const auto path = test::temp_file("dataset.bin");
  dataset::write_binary(path, result);
  const auto loaded = dataset::read_binary(path);
  ASSERT_EQ(loaded.batches.size(), result.batches.size());
  for (std::size_t i = 0; i < loaded.batches.size(); ++i) {
    EXPECT_EQ(loaded.batches[i].records, result.batches[i].records);
    EXPECT_TRUE(loaded.batches[i].spec.same_assignment(result.batches[i].spec));
    EXPECT_DOUBLE_EQ(loaded.batches[i].realized_probability,
                     result.batches[i].realized_probability);
  }
}

TEST(Dataset, CsvContainsProvenance) {
  const NoisyCircuit noisy = noisy_ghz(2, 0.4);
  const auto specs = pts::enumerate_most_likely(noisy, 0.01, 5);
  const auto result = be::execute(noisy, specs);
  const auto path = test::temp_file("dataset.csv");
  dataset::write_csv(path, result);
  std::ifstream is(path);
  ASSERT_TRUE(is);
  std::string header;
  std::getline(is, header);
  EXPECT_EQ(header, "trajectory,shot,record,nominal_probability,errors");
  std::size_t rows = 0;
  for (std::string line; std::getline(is, line);) ++rows;
  EXPECT_EQ(rows, result.total_shots());
}

TEST(Dataset, ReadRejectsGarbage) {
  const auto path = test::temp_file("garbage.bin");
  std::ofstream(path) << "not a dataset";
  EXPECT_THROW((void)dataset::read_binary(path), runtime_failure);

  // Hostile counts must fail with the structured error before anything is
  // sized from them (sizing first throws length_error or bad_alloc).
  const auto write_v2 = [&path](std::uint64_t num_batches,
                                std::vector<std::uint64_t> body) {
    std::ofstream os(path, std::ios::binary);
    os.write("PTSB", 4);
    const std::uint32_t version = dataset::kFormatVersion;
    os.write(reinterpret_cast<const char*>(&version), sizeof version);
    os.write(reinterpret_cast<const char*>(&num_batches), sizeof num_batches);
    os.write(reinterpret_cast<const char*>(body.data()),
             static_cast<std::streamsize>(body.size() * sizeof(std::uint64_t)));
  };
  // Fixed fields: spec_index, nominal, realized, shots, num_branches.
  write_v2(1, {0, 0, 0, 4, ~std::uint64_t{0}});
  EXPECT_THROW((void)dataset::read_binary(path), invariant_error);
  write_v2(1, {0, 0, 0, 4, 0, std::uint64_t{1} << 36});  // num_records
  EXPECT_THROW((void)dataset::read_binary(path), invariant_error);
  write_v2(std::uint64_t{1} << 40, {});  // batch count over an empty body
  EXPECT_THROW((void)dataset::read_binary(path), invariant_error);
  EXPECT_THROW((void)dataset::read_binary("/nonexistent/nope.bin"),
               runtime_failure);
}

// An injected pre-built plan (be::Options::plan — the serve cache hook)
// must be fingerprint-checked: a plan from a different program would sweep
// the wrong step list and return plausible-looking records.
TEST(BatchedExecution, InjectedPlanIsFingerprintChecked) {
  const NoisyCircuit program = noisy_ghz(3, 0.1);
  const NoisyCircuit other = noisy_ghz(2, 0.1);
  TrajectorySpec spec;
  spec.shots = 10;
  spec.nominal_probability = 1.0;

  be::Options options;
  options.plan = std::make_shared<const ExecPlan>(build_exec_plan(other, false));
  EXPECT_THROW((void)be::execute(program, {spec}, options), precondition_error);

  // A matching plan is accepted and bit-identical to a plan-less run.
  options.plan = std::make_shared<const ExecPlan>(build_exec_plan(program, false));
  const be::Result with_plan = be::execute(program, {spec}, options);
  const be::Result without_plan = be::execute(program, {spec}, {});
  ASSERT_EQ(with_plan.batches.size(), without_plan.batches.size());
  EXPECT_EQ(with_plan.batches[0].records, without_plan.batches[0].records);
}

// Regression: a crafted format-v1 file (pre device-id removal) must be
// rejected with a clear "unsupported dataset version" error, never
// misparsed — v1 batch blocks carry an extra per-batch device-id field, so
// reading them with the v2 layout would silently shear every field after
// it. Same contract for versions newer than the reader.
TEST(Dataset, ReadRejectsVersion1Header) {
  const auto path = test::temp_file("v1_header.bin");
  const auto write_version = [&path](std::uint32_t version) {
    std::ofstream os(path, std::ios::binary);
    os.write("PTSB", 4);
    os.write(reinterpret_cast<const char*>(&version), sizeof version);
    const std::uint64_t num_batches = 1;
    os.write(reinterpret_cast<const char*>(&num_batches), sizeof num_batches);
    // One v1-layout batch block: spec_index, *device_id*, nominal, realized,
    // shots, 0 branches, 1 record. A v2 read of these bytes would produce a
    // plausible-looking but wrong batch — exactly what must not happen.
    const std::uint64_t spec_index = 0, device_id = 3, shots = 1,
                        num_branches = 0, num_records = 1, record = 2;
    const double nominal = 0.5, realized = 0.5;
    os.write(reinterpret_cast<const char*>(&spec_index), sizeof spec_index);
    os.write(reinterpret_cast<const char*>(&device_id), sizeof device_id);
    os.write(reinterpret_cast<const char*>(&nominal), sizeof nominal);
    os.write(reinterpret_cast<const char*>(&realized), sizeof realized);
    os.write(reinterpret_cast<const char*>(&shots), sizeof shots);
    os.write(reinterpret_cast<const char*>(&num_branches), sizeof num_branches);
    os.write(reinterpret_cast<const char*>(&num_records), sizeof num_records);
    os.write(reinterpret_cast<const char*>(&record), sizeof record);
  };

  write_version(1);
  try {
    (void)dataset::read_binary(path);
    FAIL() << "v1 dataset must be rejected";
  } catch (const runtime_failure& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported dataset version 1"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("regenerate"), std::string::npos)
        << e.what();
  }

  write_version(4);  // from the future: same rejection, no misparse
  try {
    (void)dataset::read_binary(path);
    FAIL() << "future-version dataset must be rejected";
  } catch (const runtime_failure& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported dataset version 4"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// The v3 block layouts: plain words, or (record, count) runs in shot order,
// whichever is strictly smaller.
// ---------------------------------------------------------------------------

std::string encode(const be::TrajectoryBatch& batch) {
  std::string bytes;
  dataset::encode_block(batch, [&bytes](const void* data, std::size_t size) {
    bytes.append(static_cast<const char*>(data), size);
  });
  return bytes;
}

be::TrajectoryBatch block_batch(std::vector<std::uint64_t> records,
                                double realized = 0.25) {
  be::TrajectoryBatch batch;
  batch.spec_index = 3;
  batch.spec.branches = {{1, 2}, {4, 1}};
  batch.spec.shots = records.size();
  batch.spec.nominal_probability = 0.25;
  batch.realized_probability = realized;
  batch.records = std::move(records);
  return batch;
}

/// Runs of equal adjacent records: the count the run layout would store.
std::uint64_t count_runs(const std::vector<std::uint64_t>& records) {
  std::uint64_t runs = 0;
  for (std::size_t i = 0; i < records.size(); ++i)
    runs += (i == 0 || records[i] != records[i - 1]) ? 1 : 0;
  return runs;
}

/// The word after the branch pairs: the record count, or 2^63 | runs.
std::uint64_t count_word(const std::string& block, std::size_t branches) {
  std::uint64_t word = 0;
  std::memcpy(&word, block.data() + 40 + 16 * branches, sizeof word);
  return word;
}

void expect_round_trip(const be::TrajectoryBatch& batch) {
  const std::string bytes = encode(batch);
  const std::uint64_t n = batch.records.size();
  const std::uint64_t runs = count_runs(batch.records);
  const bool run_layout = 2 * runs < n;
  const std::uint64_t fixed = 48 + 16 * batch.spec.branches.size();
  EXPECT_EQ(bytes.size(), fixed + (run_layout ? 16 * runs : 8 * n));
  EXPECT_EQ(count_word(bytes, batch.spec.branches.size()),
            run_layout ? (std::uint64_t{1} << 63 | runs) : n);

  be::TrajectoryBatch back;
  back.records = {99, 99};  // reused vectors are overwritten, not appended
  EXPECT_EQ(dataset::decode_block(dataset::MemorySource(bytes, "block"), 0,
                                  back),
            bytes.size());
  EXPECT_EQ(back.spec_index, batch.spec_index);
  EXPECT_EQ(back.spec.branches, batch.spec.branches);
  EXPECT_EQ(back.spec.shots, batch.spec.shots);
  EXPECT_EQ(back.records, batch.records);
  EXPECT_EQ(std::memcmp(&back.realized_probability,
                        &batch.realized_probability, sizeof(double)),
            0);
}

TEST(DatasetBlock, EachBatchTakesTheSmallerLayout) {
  std::vector<std::uint64_t> sorted(1000, 0);
  sorted.insert(sorted.end(), 500, 3);
  sorted.insert(sorted.end(), 24, 7);
  std::vector<std::uint64_t> distinct(100);
  for (std::uint64_t i = 0; i < distinct.size(); ++i) distinct[i] = i * 7;
  // The shot-bound shape: 2^20 sorted shots over 32 outcomes, 32 runs.
  std::vector<std::uint64_t> shot_bound;
  for (std::uint64_t outcome = 0; outcome < 32; ++outcome)
    shot_bound.insert(shot_bound.end(), std::uint64_t{1} << 15, outcome * 3);

  struct Case {
    const char* name;
    std::vector<std::uint64_t> records;
    bool runs;
  };
  const Case cases[] = {
      {"sorted few-outcome", sorted, true},
      {"shot-bound", shot_bound, true},
      // Three runs in shot order: 48 bytes either way, and a tie is plain.
      {"unsorted tie", {5, 5, 3, 3, 3, 5}, false},
      {"unsorted repeats", {5, 5, 3, 3, 3, 5, 5, 5}, true},
      {"all distinct", distinct, false},
      {"one record", {42}, false},
      {"two equal records", {9, 9}, false},
      {"unrealizable", {}, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const be::TrajectoryBatch batch =
        block_batch(c.records, c.records.empty() ? 0.0 : 0.25);
    EXPECT_EQ(2 * count_runs(c.records) < c.records.size(), c.runs);
    expect_round_trip(batch);
  }
  // The unsorted run block stores its runs in shot order.
  const std::string bytes = encode(block_batch({5, 5, 3, 3, 3, 5, 5, 5}));
  std::vector<std::uint64_t> runs(6);
  std::memcpy(runs.data(), bytes.data() + bytes.size() - 48, 48);
  EXPECT_EQ(runs, (std::vector<std::uint64_t>{5, 2, 3, 3, 5, 3}));
}

TEST(DatasetBlock, RandomRecordsRoundTripAtTheSmallerSize) {
  // Run lengths straddle the encoder's eight-word scan; alphabets of 1-5
  // outcomes, sorted and unsorted, cover both layouts and the tie.
  RngStream rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE(trial);
    const std::uint64_t n = rng.bits64() % 70;
    const std::uint64_t alphabet = 1 + rng.bits64() % 5;
    std::vector<std::uint64_t> records;
    while (records.size() < n) {
      const std::uint64_t record = rng.bits64() % alphabet;
      const std::uint64_t length = 1 + rng.bits64() % 20;
      for (std::uint64_t k = 0; k < length && records.size() < n; ++k)
        records.push_back(record);
    }
    if (trial % 2 == 0) std::sort(records.begin(), records.end());
    expect_round_trip(block_batch(records));
  }
}

TEST(DatasetBlock, VersionTwoFilesReadAsBefore) {
  // A v2 file is a header with version 2 and plain blocks: the v3 reader
  // decodes it with the same decoder.
  be::Result result;
  for (std::uint64_t i = 0; i < 3; ++i) {
    std::vector<std::uint64_t> records;
    for (std::uint64_t k = 0; k <= i; ++k) records.push_back(k * 11 + i);
    result.batches.push_back(block_batch(records));
    result.batches.back().spec_index = i;
  }
  const auto path = test::temp_file("v2_file.bin");
  dataset::write_binary(path, result);
  {
    std::fstream fs(path, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint32_t version = 2;
    fs.seekp(4);
    fs.write(reinterpret_cast<const char*>(&version), sizeof version);
  }
  const be::Result back = dataset::read_binary(path);
  ASSERT_EQ(back.batches.size(), result.batches.size());
  for (std::size_t i = 0; i < back.batches.size(); ++i)
    EXPECT_EQ(back.batches[i].records, result.batches[i].records);
}


TEST(BatchedExecution, SpecValidationRejectsBadIndices) {
  const NoisyCircuit noisy = noisy_ghz(2, 0.1);
  TrajectorySpec bad;
  bad.branches = {{999, 0}};
  bad.shots = 1;
  EXPECT_THROW((void)be::execute(noisy, {bad}), precondition_error);
}

// ---------------------------------------------------------------------------
// The executor's fork-join primitive: `parallel_for` inside a task splits
// its ranges across the executor's idle workers, and runs inline on a
// thread that is no worker and inside a range.
// ---------------------------------------------------------------------------

/// Run `body` as the only task of a `threads`-worker executor.
void run_as_task(std::size_t threads, const std::function<void()>& body) {
  be::TrajectoryExecutor executor(threads);
  executor.spawn([&body](std::size_t) { body(); });
  executor.drain([](be::TrajectoryBatch&&) {});
}

/// A few microseconds of work the compiler cannot drop, so that a fork's
/// ranges outlast the idle workers' wake-up.
std::uint64_t busy_work(std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (int k = 0; k < 2000; ++k)
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x;
}

TEST(ExecutorFork, EveryIndexRunsExactlyOnce) {
  constexpr int kForks = 20;
  for (const std::size_t threads : {1, 2, 4}) {
    for (const std::uint64_t count :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{threads - 1},
          std::uint64_t{1000}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " count=" + std::to_string(count));
      std::vector<std::atomic<int>> runs(count);
      std::atomic<std::uint64_t> sink{0};
      run_as_task(threads, [&] {
        for (int fork = 0; fork < kForks; ++fork)
          parallel_for(count, [&](std::uint64_t i) {
            sink.fetch_add(busy_work(i), std::memory_order_relaxed);
            runs[i].fetch_add(1, std::memory_order_relaxed);
          });
      });
      for (std::uint64_t i = 0; i < count; ++i)
        EXPECT_EQ(runs[i].load(), kForks) << "index " << i;
    }
  }
}

TEST(ExecutorFork, IdleWorkersTakeRanges) {
  std::mutex mutex;
  std::set<std::thread::id> seen;
  std::atomic<std::uint64_t> sink{0};
  run_as_task(4, [&] {
    for (int fork = 0; fork < 50; ++fork)
      parallel_for(256, [&](std::uint64_t i) {
        sink.fetch_add(busy_work(i), std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(mutex);
        seen.insert(std::this_thread::get_id());
      });
  });
  EXPECT_GT(seen.size(), 1u);
}

TEST(ExecutorFork, NestedAndOutsideCallsRunInline) {
  // Not an executor worker: a plain loop, in index order.
  std::vector<std::uint64_t> order;
  parallel_for(100, [&](std::uint64_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (std::uint64_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  // Inside a range: the nested loop runs on the range's own thread, in
  // index order.
  std::atomic<int> inner_runs{0}, misplaced{0};
  std::atomic<std::uint64_t> sink{0};
  run_as_task(4, [&] {
    parallel_for(64, [&](std::uint64_t i) {
      sink.fetch_add(busy_work(i), std::memory_order_relaxed);
      const std::thread::id outer = std::this_thread::get_id();
      std::uint64_t next = 0;
      parallel_for(16, [&](std::uint64_t j) {
        if (std::this_thread::get_id() != outer || j != next) ++misplaced;
        ++next;
        ++inner_runs;
      });
    });
  });
  EXPECT_EQ(inner_runs.load(), 64 * 16);
  EXPECT_EQ(misplaced.load(), 0);
}

TEST(ExecutorFork, RangeExceptionReachesTheCaller) {
  for (const std::size_t threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::string caught;
    // An exception that escaped to a worker loop would fail the run, and
    // drain would rethrow it.
    EXPECT_NO_THROW(run_as_task(threads, [&] {
      try {
        parallel_for(1000, [](std::uint64_t i) {
          (void)busy_work(i);
          if (i == 500) throw std::runtime_error("range 500");
        });
      } catch (const std::runtime_error& e) {
        caught = e.what();
      }
    }));
    EXPECT_EQ(caught, "range 500");
  }
}

// A caller that claims every range before a helper wakes leaves that
// helper queued; it runs after the call returned, finds no range left and
// touches none of the caller's memory (the ASan job runs this suite).
TEST(ExecutorFork, HelpersThatRunAfterTheCallAreHarmless) {
  std::uint64_t total = 0;
  run_as_task(4, [&] {
    for (int fork = 0; fork < 2000; ++fork) {
      std::vector<std::uint64_t> values(2);
      parallel_for(2, [&](std::uint64_t i) { values[i] = i + 1; });
      total += values[0] + values[1];
    }
  });
  EXPECT_EQ(total, 2000u * 3);
}

}  // namespace
}  // namespace ptsbe

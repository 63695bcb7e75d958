// The streaming Batched-Execution path and the incremental dataset writer:
// `execute_streaming` must deliver every batch exactly once with the same
// records and weights the materialising `execute` produces — under
// multi-threaded scheduling — and `dataset::StreamWriter` must emit files
// byte-identical to the bulk `write_binary`, including zero-probability
// unrealizable batches.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "ptsbe/common/inverse_cdf.hpp"
#include "ptsbe/core/dataset.hpp"
#include "ptsbe/core/pts.hpp"
#include "ptsbe/noise/channels.hpp"
#include "temp_file.hpp"

namespace ptsbe {
namespace {

NoisyCircuit ghz_program(unsigned n = 5) {
  Circuit c(n);
  c.h(0);
  for (unsigned q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  c.measure_all();
  NoiseModel noise;
  noise.add_all_gate_noise(channels::depolarizing(0.03));
  return noise.apply(c);
}

std::vector<TrajectorySpec> sample_specs(const NoisyCircuit& noisy,
                                         std::size_t nsamples = 400,
                                         std::uint64_t nshots = 100) {
  RngStream rng(21);
  pts::Options options;
  options.nsamples = nsamples;
  options.nshots = nshots;
  options.merge_duplicates = true;
  return pts::sample_probabilistic(noisy, options, rng);
}

/// `specs` with every budget raised to 2–4 leaf-sampling chunks plus an odd
/// remainder, so every leaf splits its draw across executor tasks.
std::vector<TrajectorySpec> multi_chunk(std::vector<TrajectorySpec> specs) {
  for (std::size_t i = 0; i < specs.size(); ++i)
    specs[i].shots = (1 + i % 3) * kSampleChunk + 2 * i + 1;
  return specs;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(is)) << path;
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void expect_batches_equal(const be::TrajectoryBatch& a,
                          const be::TrajectoryBatch& b) {
  EXPECT_EQ(a.spec_index, b.spec_index);
  EXPECT_EQ(a.records, b.records);
  EXPECT_TRUE(a.spec.same_assignment(b.spec));
  EXPECT_EQ(a.spec.shots, b.spec.shots);
  EXPECT_DOUBLE_EQ(a.spec.nominal_probability, b.spec.nominal_probability);
  EXPECT_DOUBLE_EQ(a.realized_probability, b.realized_probability);
}

TEST(ExecuteStreaming, DeliversEveryBatchExactlyOnceUnderMultiDevice) {
  const NoisyCircuit noisy = ghz_program();
  const auto specs = sample_specs(noisy);
  ASSERT_GT(specs.size(), 4u);

  be::Options options;
  options.threads = 4;
  const be::Result reference = be::execute(noisy, specs, options);

  std::vector<std::size_t> deliveries(specs.size(), 0);
  std::vector<be::TrajectoryBatch> streamed(specs.size());
  // Sink calls are serialised by the executor, so plain writes suffice.
  const be::StreamSummary summary = be::execute_streaming(
      noisy, specs, options, [&](be::TrajectoryBatch&& batch) {
        ASSERT_LT(batch.spec_index, specs.size());
        deliveries[batch.spec_index] += 1;
        streamed[batch.spec_index] = std::move(batch);
      });

  for (std::size_t i = 0; i < specs.size(); ++i)
    EXPECT_EQ(deliveries[i], 1u) << "spec " << i;
  EXPECT_EQ(summary.num_batches, specs.size());
  EXPECT_EQ(summary.total_shots, reference.total_shots());

  // Identical per-trajectory substreams → bit-identical records regardless
  // of which path (or device) executed the spec.
  for (std::size_t i = 0; i < specs.size(); ++i)
    expect_batches_equal(streamed[i], reference.batches[i]);
}

TEST(ExecuteStreaming, SingleDeviceDeliversInSpecOrder) {
  const NoisyCircuit noisy = ghz_program();
  const auto specs = sample_specs(noisy, 100, 16);
  // Split leaves push their chunks onto the worker's own deque, where they
  // run before the next spec, so the multi-chunk input keeps the order too.
  for (const std::vector<TrajectorySpec>& input : {specs, multi_chunk(specs)}) {
    std::vector<std::size_t> order;
    (void)be::execute_streaming(noisy, input, {},
                                [&](be::TrajectoryBatch&& batch) {
                                  order.push_back(batch.spec_index);
                                });
    ASSERT_EQ(order.size(), input.size());
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  }
}

TEST(ExecuteStreaming, SinkRunsOnlyOnTheCallingThread) {
  // The documented sink contract: workers hand batches over a lock-free
  // queue and the sink runs on execute_streaming's caller — so sinks need
  // no locking even under heavy thread counts.
  const NoisyCircuit noisy = ghz_program();
  const auto specs = sample_specs(noisy, 200, 32);
  be::Options options;
  options.threads = 4;
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t delivered = 0;
  (void)be::execute_streaming(noisy, specs, options,
                              [&](be::TrajectoryBatch&&) {
                                EXPECT_EQ(std::this_thread::get_id(), caller);
                                ++delivered;
                              });
  EXPECT_EQ(delivered, specs.size());
}

TEST(ExecuteStreaming, ThreadsDeliverEveryBatchExactlyOnce) {
  const NoisyCircuit noisy = ghz_program();
  const auto specs = sample_specs(noisy);
  ASSERT_GT(specs.size(), 4u);
  be::Options options;
  options.threads = 8;
  const be::Result reference = be::execute(noisy, specs, {});
  std::vector<std::size_t> deliveries(specs.size(), 0);
  std::vector<be::TrajectoryBatch> streamed(specs.size());
  const be::StreamSummary summary = be::execute_streaming(
      noisy, specs, options, [&](be::TrajectoryBatch&& batch) {
        ASSERT_LT(batch.spec_index, specs.size());
        deliveries[batch.spec_index] += 1;
        streamed[batch.spec_index] = std::move(batch);
      });
  for (std::size_t i = 0; i < specs.size(); ++i)
    EXPECT_EQ(deliveries[i], 1u) << "spec " << i;
  EXPECT_EQ(summary.num_batches, specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    expect_batches_equal(streamed[i], reference.batches[i]);
}

TEST(ExecuteStreaming, SlowSinkAppliesBackpressureAndLosesNothing) {
  // A sink slower than the workers forces the executor's bounded
  // completion queue to fill; emit() then backpressures the workers
  // instead of accumulating the whole corpus in memory. Every batch must
  // still arrive exactly once, bit-identical to the serial reference.
  const NoisyCircuit noisy = ghz_program();
  const auto specs = sample_specs(noisy, 150, 8);
  ASSERT_GT(specs.size(), 8u);
  const be::Result reference = be::execute(noisy, specs, {});
  be::Options options;
  options.threads = 4;
  std::vector<std::size_t> deliveries(specs.size(), 0);
  std::vector<be::TrajectoryBatch> streamed(specs.size());
  (void)be::execute_streaming(
      noisy, specs, options, [&](be::TrajectoryBatch&& batch) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        deliveries[batch.spec_index] += 1;
        streamed[batch.spec_index] = std::move(batch);
      });
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(deliveries[i], 1u) << "spec " << i;
    expect_batches_equal(streamed[i], reference.batches[i]);
  }
}

TEST(ExecuteStreaming, SinkExceptionPropagatesUnderThreads) {
  const NoisyCircuit noisy = ghz_program();
  const auto specs = sample_specs(noisy, 120, 8);
  ASSERT_GT(specs.size(), 6u);
  be::Options options;
  options.threads = 4;
  // With the multi-chunk input the throw lands while split leaves have
  // chunk tasks in flight.
  for (const std::vector<TrajectorySpec>& input : {specs, multi_chunk(specs)}) {
    std::size_t delivered = 0;
    EXPECT_THROW(
        (void)be::execute_streaming(noisy, input, options,
                                    [&](be::TrajectoryBatch&&) {
                                      if (++delivered == 3)
                                        throw runtime_failure("sink full");
                                    }),
        runtime_failure);
    // The failing call is the last: the sink is never invoked again after
    // it throws (remaining batches are dropped, pending specs are skipped).
    EXPECT_EQ(delivered, 3u);
  }
}

TEST(ExecuteStreaming, SinkExceptionPropagatesAndStopsDelivery) {
  const NoisyCircuit noisy = ghz_program();
  const auto specs = sample_specs(noisy, 50, 8);
  std::size_t delivered = 0;
  EXPECT_THROW(
      (void)be::execute_streaming(noisy, specs, {},
                                  [&](be::TrajectoryBatch&&) {
                                    if (++delivered == 3)
                                      throw runtime_failure("sink full");
                                  }),
      runtime_failure);
  EXPECT_EQ(delivered, 3u);
}

TEST(ExecuteStreaming, RequiresASink) {
  const NoisyCircuit noisy = ghz_program();
  EXPECT_THROW((void)be::execute_streaming(noisy, {}, {}, be::BatchSink{}),
               precondition_error);
}

// The acceptance criterion: stream the dataset to disk without ever
// materialising a be::Result, and get the same bytes the bulk writer
// produces (single device: completion order == spec order == bulk order).
TEST(StreamWriter, StreamedExportIsByteIdenticalToBulkWriter) {
  const NoisyCircuit noisy = ghz_program();
  const auto specs = sample_specs(noisy);

  const auto bulk_path = test::temp_file("stream_bulk.bin");
  dataset::write_binary(bulk_path, be::execute(noisy, specs, {}));

  const auto stream_path = test::temp_file("stream_inc.bin");
  {
    dataset::StreamWriter writer(stream_path);
    (void)be::execute_streaming(noisy, specs, {},
                                [&](be::TrajectoryBatch&& batch) {
                                  writer.append(batch);
                                });
    EXPECT_EQ(writer.batches_written(), specs.size());
    writer.close();
  }

  const std::string bulk_bytes = slurp(bulk_path);
  const std::string stream_bytes = slurp(stream_path);
  ASSERT_FALSE(bulk_bytes.empty());
  EXPECT_EQ(bulk_bytes, stream_bytes);
}

// Multi-device streaming reorders the file's batch blocks but must lose
// nothing: reading it back and sorting by spec index recovers exactly the
// bulk result.
TEST(StreamWriter, MultiDeviceStreamedExportRoundTripsCompletely) {
  const NoisyCircuit noisy = ghz_program();
  const auto specs = sample_specs(noisy);

  be::Options options;
  options.threads = 4;
  const be::Result reference = be::execute(noisy, specs, options);

  const auto path = test::temp_file("stream_multidev.bin");
  {
    dataset::StreamWriter writer(path);
    (void)be::execute_streaming(noisy, specs, options,
                                [&](be::TrajectoryBatch&& batch) {
                                  writer.append(batch);
                                });
  }  // destructor closes

  be::Result loaded = dataset::read_binary(path);
  ASSERT_EQ(loaded.batches.size(), reference.batches.size());
  std::sort(loaded.batches.begin(), loaded.batches.end(),
            [](const be::TrajectoryBatch& a, const be::TrajectoryBatch& b) {
              return a.spec_index < b.spec_index;
            });
  for (std::size_t i = 0; i < loaded.batches.size(); ++i)
    expect_batches_equal(loaded.batches[i], reference.batches[i]);
}

// Unrealizable specs (realised probability 0, no records) must survive the
// incremental format like any other batch.
TEST(StreamWriter, ZeroProbabilityBatchRoundTrips) {
  be::Result synthetic;
  be::TrajectoryBatch realizable;
  realizable.spec_index = 0;
  realizable.spec.branches = {{2, 1}};
  realizable.spec.shots = 4;
  realizable.spec.nominal_probability = 0.25;
  realizable.realized_probability = 0.125;
  realizable.records = {1, 3, 3, 0};
  be::TrajectoryBatch unrealizable;
  unrealizable.spec_index = 1;
  unrealizable.spec.branches = {{0, 2}, {5, 1}};
  unrealizable.spec.shots = 128;
  unrealizable.spec.nominal_probability = 1e-3;
  unrealizable.realized_probability = 0.0;  // no records by contract
  synthetic.batches = {realizable, unrealizable};

  const auto bulk_path = test::temp_file("stream_zero_bulk.bin");
  const auto stream_path = test::temp_file("stream_zero_inc.bin");
  dataset::write_binary(bulk_path, synthetic);
  {
    dataset::StreamWriter writer(stream_path);
    for (const be::TrajectoryBatch& batch : synthetic.batches)
      writer.append(batch);
  }
  EXPECT_EQ(slurp(bulk_path), slurp(stream_path));

  const be::Result loaded = dataset::read_binary(stream_path);
  ASSERT_EQ(loaded.batches.size(), 2u);
  expect_batches_equal(loaded.batches[0], realizable);
  expect_batches_equal(loaded.batches[1], unrealizable);
  EXPECT_TRUE(loaded.batches[1].records.empty());
}

// A run aborted by an exception must not leave a file that parses as a
// smaller-but-complete corpus: the destructor skips header patching during
// unwinding, so the partial file reads back as empty/incomplete.
TEST(StreamWriter, AbortedRunLeavesFileMarkedIncomplete) {
  const auto path = test::temp_file("stream_aborted.bin");
  be::TrajectoryBatch batch;
  batch.spec.shots = 2;
  batch.spec.nominal_probability = 1.0;
  batch.records = {0, 1};
  try {
    dataset::StreamWriter writer(path);
    writer.append(batch);
    throw runtime_failure("simulated mid-run abort");
  } catch (const runtime_failure&) {
  }
  const be::Result loaded = dataset::read_binary(path);
  EXPECT_TRUE(loaded.batches.empty());
}

TEST(StreamWriter, AppendAfterCloseThrows) {
  const auto path = test::temp_file("stream_closed.bin");
  dataset::StreamWriter writer(path);
  writer.close();
  writer.close();  // idempotent
  EXPECT_THROW(writer.append(be::TrajectoryBatch{}), precondition_error);
  const be::Result loaded = dataset::read_binary(path);
  EXPECT_TRUE(loaded.batches.empty());
}

}  // namespace
}  // namespace ptsbe

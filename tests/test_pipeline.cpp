// The ptsbe::Pipeline facade: one fluent expression must wire exactly the
// same PTS → BE run a caller would assemble by hand from the low-level
// layers (same seed → bit-identical records), bundle the strategy-declared
// weighting with the result, and expose estimation/export without touching
// be::estimate or dataset:: directly.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ptsbe/common/bits.hpp"
#include "ptsbe/core/dataset.hpp"
#include "ptsbe/core/pipeline.hpp"
#include "ptsbe/noise/channels.hpp"
#include "temp_file.hpp"

namespace ptsbe {
namespace {

constexpr std::uint64_t kSeed = 77;

Circuit ghz_circuit(unsigned n = 4) {
  Circuit c(n);
  c.h(0);
  for (unsigned q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  c.measure_all();
  return c;
}

NoiseModel ghz_noise() {
  NoiseModel noise;
  noise.add_all_gate_noise(channels::depolarizing(0.02));
  noise.add_measurement_noise(channels::bit_flip(0.01));
  return noise;
}

// The equivalence pin for the facade: Pipeline(circuit, noise).strategy(...)
// .backend(...).seed(s).run() == manual wiring of the documented low-level
// layer with the same seed (PTS samples from the master stream, BE hands
// trajectory t substream t+1).
TEST(Pipeline, MatchesManualWiringBitForBit) {
  const Circuit circuit = ghz_circuit();
  const NoiseModel noise = ghz_noise();

  pts::StrategyConfig config;
  config.nsamples = 600;
  config.nshots = 200;
  const RunResult run = Pipeline(circuit, noise)
                            .strategy("probabilistic", config)
                            .backend("statevector")
                            .seed(kSeed)
                            .run();

  // Manual wiring, low-level layer only.
  const NoisyCircuit noisy = noise.apply(circuit);
  RngStream rng(kSeed);
  pts::Options options;
  options.nsamples = 600;
  options.nshots = 200;
  options.merge_duplicates = true;  // StrategyConfig's default
  const auto specs = pts::sample_probabilistic(noisy, options, rng);
  be::Options exec;
  exec.backend = "statevector";
  exec.seed = kSeed;
  const be::Result manual = be::execute(noisy, specs, exec);

  ASSERT_EQ(run.num_specs, specs.size());
  ASSERT_EQ(run.result.batches.size(), manual.batches.size());
  for (std::size_t i = 0; i < manual.batches.size(); ++i) {
    const be::TrajectoryBatch& a = run.result.batches[i];
    const be::TrajectoryBatch& b = manual.batches[i];
    EXPECT_TRUE(a.spec.same_assignment(b.spec)) << i;
    EXPECT_EQ(a.records, b.records) << i;
    EXPECT_DOUBLE_EQ(a.realized_probability, b.realized_probability) << i;
  }
}

TEST(Pipeline, BundlesTheStrategyWeighting) {
  pts::StrategyConfig band_config;
  band_config.nsamples = 400;
  band_config.p_min = 1e-6;
  band_config.p_max = 1e-1;
  Pipeline pipeline(ghz_circuit(), ghz_noise());

  EXPECT_EQ(pipeline.weighting(), be::Weighting::kDrawWeighted);  // default

  const RunResult band =
      pipeline.strategy("band", band_config).seed(kSeed).run();
  EXPECT_EQ(band.weighting, be::Weighting::kProbabilityWeighted);
  EXPECT_EQ(band.strategy, "band");
  EXPECT_EQ(band.backend, "statevector");

  // Convenience estimators use the bundled weighting — identical to calling
  // the estimator layer with the correct pairing by hand.
  const std::uint64_t mask = 0xF;
  const be::Estimate via_facade = band.estimate_z_parity(mask);
  const be::Estimate via_layer = be::estimate_z_parity(
      band.result, be::Weighting::kProbabilityWeighted, mask);
  EXPECT_DOUBLE_EQ(via_facade.value, via_layer.value);
  EXPECT_DOUBLE_EQ(via_facade.std_error, via_layer.std_error);

  const be::Estimate p_even = band.estimate_probability(
      [](std::uint64_t r) { return !parity64(r & 0xF); });
  EXPECT_GE(p_even.value, 0.0);
  EXPECT_LE(p_even.value, 1.0);
}

TEST(Pipeline, SampleExposesThePtsStageOnly) {
  pts::StrategyConfig config;
  config.nsamples = 300;
  Pipeline pipeline(ghz_circuit(), ghz_noise());
  pipeline.strategy("probabilistic", config).seed(kSeed);
  const auto specs = pipeline.sample();
  const RunResult run = pipeline.run();
  ASSERT_EQ(specs.size(), run.num_specs);
  for (std::size_t i = 0; i < specs.size(); ++i)
    EXPECT_TRUE(specs[i].same_assignment(run.result.batches[i].spec)) << i;
}

TEST(Pipeline, ThreadCountDoesNotChangeRecords) {
  pts::StrategyConfig config;
  config.nsamples = 200;
  config.nshots = 64;
  Pipeline pipeline(ghz_circuit(), ghz_noise());
  pipeline.strategy("probabilistic", config).seed(kSeed);
  const RunResult serial = pipeline.threads(1).run();
  // threads(0) = hardware concurrency; any explicit count works too.
  const RunResult hardware = pipeline.threads(0).run();
  const RunResult eight = pipeline.threads(8).run();
  ASSERT_EQ(serial.result.batches.size(), hardware.result.batches.size());
  ASSERT_EQ(serial.result.batches.size(), eight.result.batches.size());
  for (std::size_t i = 0; i < serial.result.batches.size(); ++i) {
    EXPECT_EQ(serial.result.batches[i].records,
              hardware.result.batches[i].records)
        << i;
    EXPECT_EQ(serial.result.batches[i].records,
              eight.result.batches[i].records)
        << i;
  }
}

TEST(Pipeline, DeviceCountDoesNotChangeRecords) {
  pts::StrategyConfig config;
  config.nsamples = 200;
  config.nshots = 64;
  Pipeline pipeline(ghz_circuit(), ghz_noise());
  pipeline.strategy("probabilistic", config).seed(kSeed);
  const RunResult serial = pipeline.threads(1).run();
  const RunResult parallel = pipeline.threads(4).run();
  ASSERT_EQ(serial.result.batches.size(), parallel.result.batches.size());
  for (std::size_t i = 0; i < serial.result.batches.size(); ++i)
    EXPECT_EQ(serial.result.batches[i].records,
              parallel.result.batches[i].records)
        << i;
}

TEST(Pipeline, RunStreamingMatchesRun) {
  pts::StrategyConfig config;
  config.nsamples = 200;
  config.nshots = 32;
  Pipeline pipeline(ghz_circuit(), ghz_noise());
  pipeline.strategy("probabilistic", config).seed(kSeed).threads(3);
  const RunResult materialised = pipeline.run();
  std::vector<be::TrajectoryBatch> streamed(materialised.result.batches.size());
  const be::StreamSummary summary =
      pipeline.run_streaming([&](be::TrajectoryBatch&& batch) {
        streamed[batch.spec_index] = std::move(batch);
      });
  EXPECT_EQ(summary.num_batches, materialised.result.batches.size());
  EXPECT_EQ(summary.total_shots, materialised.result.total_shots());
  for (std::size_t i = 0; i < streamed.size(); ++i)
    EXPECT_EQ(streamed[i].records, materialised.result.batches[i].records)
        << i;
}

TEST(Pipeline, ExportRoundTripsThroughDataset) {
  pts::StrategyConfig config;
  config.nsamples = 150;
  config.nshots = 16;
  const RunResult run = Pipeline(ghz_circuit(), ghz_noise())
                            .strategy("probabilistic", config)
                            .seed(kSeed)
                            .run();
  const auto path = test::temp_file("pipeline_export.bin");
  run.to_binary(path);
  const be::Result loaded = dataset::read_binary(path);
  ASSERT_EQ(loaded.batches.size(), run.result.batches.size());
  for (std::size_t i = 0; i < loaded.batches.size(); ++i)
    EXPECT_EQ(loaded.batches[i].records, run.result.batches[i].records) << i;

  const auto csv = test::temp_file("pipeline_export.csv");
  run.to_csv(csv);  // existence/format is covered by the dataset suite
}

TEST(Pipeline, UnknownComponentNamesThrowWithTheRegistryMessage) {
  Pipeline pipeline(ghz_circuit(), ghz_noise());
  EXPECT_THROW((void)pipeline.strategy("no-such-strategy").run(),
               precondition_error);
  EXPECT_THROW((void)Pipeline(ghz_circuit(), ghz_noise())
                   .backend("no-such-backend")
                   .run(),
               precondition_error);
}

TEST(Pipeline, MispairingIsStructurallyImpossible) {
  // The regression this facade exists to prevent: band-filtered specs used
  // to be silently estimable with the draw-weighted estimator. Through the
  // facade the weighting always matches the strategy — pin both pairings.
  pts::StrategyConfig band_config;
  band_config.nsamples = 300;
  band_config.p_min = 1e-6;
  Pipeline pipeline(ghz_circuit(), ghz_noise());
  EXPECT_EQ(
      pipeline.strategy("band", band_config).weighting(),
      be::Weighting::kProbabilityWeighted);
  EXPECT_EQ(pipeline.strategy("probabilistic").weighting(),
            be::Weighting::kDrawWeighted);
}

}  // namespace
}  // namespace ptsbe

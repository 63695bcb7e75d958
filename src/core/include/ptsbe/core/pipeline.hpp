#pragma once

/// \file pipeline.hpp
/// \brief The PTSBE facade: PTS → BE → estimation as one fluent pipeline.
///
/// The paper's point is that pre-trajectory sampling, batched execution and
/// estimation form *one* pipeline; this header makes the public API say so.
/// A `Pipeline` selects its PTS strategy and simulator backend **by
/// registry name**, threads one master seed through both stages, and
/// returns a `RunResult` that bundles the BE output with the weighting the
/// strategy declared — so estimates can no longer be silently biased by
/// pairing, say, band-filtered specs with the draw-weighted estimator.
///
/// ```cpp
/// pts::StrategyConfig cfg;
/// cfg.nsamples = 4000;
/// cfg.p_min = 1e-7;  cfg.p_max = 1e-3;
/// const RunResult run = Pipeline(circuit, noise)
///                           .strategy("band", cfg)
///                           .backend("mps", mps_cfg)
///                           .threads(8)
///                           .seed(42)
///                           .run();
/// const auto tail = run.estimate_probability(accept);
/// run.to_binary("shots.bin");
/// ```
///
/// The pts.hpp free functions and be::execute remain the documented
/// low-level layer for callers that need to post-process specs between the
/// stages.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ptsbe/core/batched_execution.hpp"
#include "ptsbe/core/estimator.hpp"
#include "ptsbe/core/strategy.hpp"

namespace ptsbe {

/// Everything one pipeline run produces: the BE result plus the metadata
/// needed to consume it correctly (the strategy-declared weighting) and the
/// component names that produced it (diagnostics / dataset provenance).
struct RunResult {
  be::Result result;
  /// Estimator weighting declared by the strategy that sampled the specs.
  be::Weighting weighting = be::Weighting::kDrawWeighted;
  /// Registry names this run was wired from.
  std::string strategy;
  std::string backend;
  /// Trajectory specifications executed (== result.batches.size()).
  std::size_t num_specs = 0;

  /// Estimate E[f(record)] under the physical noisy distribution, using the
  /// strategy's declared weighting.
  [[nodiscard]] be::Estimate estimate(
      const std::function<double(std::uint64_t)>& f) const;

  /// ⟨Z…Z⟩ over the record bits selected by `mask`.
  [[nodiscard]] be::Estimate estimate_z_parity(std::uint64_t mask) const;

  /// Probability that `predicate` holds.
  [[nodiscard]] be::Estimate estimate_probability(
      const std::function<bool(std::uint64_t)>& predicate) const;

  /// Dataset export (see dataset.hpp for the formats).
  void to_csv(const std::string& path) const;
  void to_binary(const std::string& path) const;
};

/// Fluent builder wiring the whole PTSBE pipeline. Setters return *this;
/// `run()` is const, so one configured pipeline can be run repeatedly
/// (vary `seed` between calls for independent repetitions).
class Pipeline {
 public:
  /// Bind `noise` to `circuit` (NoiseModel::apply) and start from the
  /// resulting noisy program.
  Pipeline(const Circuit& circuit, const NoiseModel& noise);

  /// Start from an already-expanded noisy program.
  explicit Pipeline(NoisyCircuit noisy);

  /// Select the PTS strategy by registry name (default: "probabilistic"
  /// with a default-constructed config). Unknown names throw at run().
  Pipeline& strategy(std::string name, pts::StrategyConfig config = {});

  /// Select the simulator backend by registry name (default:
  /// "statevector"). Unknown names throw at run().
  Pipeline& backend(std::string name, BackendConfig config = {});

  /// Trajectory scheduling policy (default: independent). Shared-prefix
  /// scheduling amortises overlapping preparation sweeps across specs and
  /// produces bit-identical records (see be::Schedule).
  Pipeline& schedule(be::Schedule schedule);

  /// Worker threads for inter-trajectory parallelism (default 1; 0 =
  /// hardware concurrency). Records are bit-identical at every thread
  /// count — see be::Options::threads.
  Pipeline& threads(std::size_t num_threads);

  /// Master seed for *both* stages: PTS samples from the master stream
  /// (subsequence 0) and BE gives trajectory t substream t+1, so the two
  /// stages never share randomness and a seed pins the entire run.
  Pipeline& seed(std::uint64_t seed);

  /// Inject a pre-built execution plan so run() skips fusion+lowering
  /// (see be::Options::plan — the ptsbe::serve plan-cache hook). The plan
  /// must come from `make_plan` of a backend matching this pipeline's
  /// backend()/config against program(); records are bit-identical either
  /// way. Pass nullptr to restore per-run plan building.
  Pipeline& cached_plan(std::shared_ptr<const ExecPlan> plan);

  /// The noisy program this pipeline executes.
  [[nodiscard]] const NoisyCircuit& program() const noexcept { return noisy_; }

  /// The weighting the configured strategy declares (resolves the name).
  [[nodiscard]] be::Weighting weighting() const;

  /// Run the PTS stage only — the specs run() would execute.
  [[nodiscard]] std::vector<TrajectorySpec> sample() const;

  /// PTS → BE, materialising every batch.
  [[nodiscard]] RunResult run() const;

  /// PTS → streaming BE: batches are delivered to `sink` as devices finish
  /// (see be::execute_streaming) instead of accumulating in a RunResult.
  be::StreamSummary run_streaming(const be::BatchSink& sink) const;

 private:
  /// The single definition of the PTS stage's seeding convention.
  [[nodiscard]] std::vector<TrajectorySpec> sample_with(
      const pts::Strategy& strat) const;

  NoisyCircuit noisy_;
  std::string strategy_name_ = "probabilistic";
  pts::StrategyConfig strategy_config_;
  be::Options exec_;
};

}  // namespace ptsbe

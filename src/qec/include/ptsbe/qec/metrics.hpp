#pragma once

/// \file metrics.hpp
/// \brief Logical-error analytics over PTSBE trajectory records.
///
/// The estimator layer answers "what is E[f(record)]"; threshold studies
/// need the specialised f = "did the decoder fail this shot" *plus* honest
/// uncertainty on a rate that is often very small. This module provides:
///
///  - `wilson_interval` — the Wilson score interval for a binomial rate
///    (well-behaved at 0 failures, unlike the normal approximation);
///  - `LogicalErrorAccumulator` — a streaming consumer of trajectory
///    batches (usable directly as a `be::BatchSink`, so sweeps never
///    materialise a full `Result`). It decodes each run of equal adjacent
///    records once with a `ShotDecoder` (`make_shot_decoder` names them;
///    the dense samplers emit sorted records, so a batch costs one decode
///    per distinct outcome) and weighs shots
///    with exactly the estimator's `be::shot_weight` rule, so the weighted
///    rate equals `RunResult::estimate_probability(decoder fails)`
///    bit-for-bit, and scales its Wilson interval by the Kish effective
///    sample size (Σw)²/Σw² — which degrades gracefully under
///    importance-sampling strategies and reduces to the raw shot count for
///    uniform weights;
///  - `run_memory_point` — one threshold-sweep point end to end: workload →
///    pipeline (streaming) → `ShotDecoder` → `LogicalErrorPoint`.

#include <cstddef>
#include <cstdint>
#include <string>

#include "ptsbe/core/estimator.hpp"
#include "ptsbe/core/pipeline.hpp"
#include "ptsbe/qec/spacetime.hpp"
#include "ptsbe/qec/workload.hpp"

namespace ptsbe::qec {

/// z-score of the two-sided 95% confidence level.
inline constexpr double kZ95 = 1.959963984540054;

/// A confidence interval on a binomial rate, clamped to [0, 1].
struct WilsonInterval {
  double lower = 0.0;
  double upper = 0.0;
};

/// Wilson score interval for `failures` out of `trials` at z-score `z`.
/// Accepts fractional (effective) counts; returns [0, 1] for zero trials.
[[nodiscard]] WilsonInterval wilson_interval(double failures, double trials,
                                             double z = kZ95);

/// Streaming logical-error-rate accumulator. Feed it every batch of one
/// run — via `consume` or by passing `sink()` to
/// `Pipeline::run_streaming` / `be::execute_streaming` — then read the
/// rate. Not thread-safe by itself; the BatchSink contract (sink invoked
/// only on the calling thread, in deterministic order) makes that safe.
class LogicalErrorAccumulator {
 public:
  /// `decoder` must outlive the accumulator; `weighting` is the
  /// strategy-declared one (`Pipeline::weighting()`).
  LogicalErrorAccumulator(const ShotDecoder& decoder,
                          be::Weighting weighting);

  void consume(const be::TrajectoryBatch& batch);
  void consume(const be::Result& result);

  /// A sink forwarding every batch into this accumulator.
  [[nodiscard]] be::BatchSink sink();

  /// Raw decoded shots / failures (unweighted diagnostics — and the exact
  /// pinned quantities for uniform-weight golden tests).
  [[nodiscard]] std::uint64_t shots() const noexcept { return shots_; }
  [[nodiscard]] std::uint64_t failures() const noexcept { return failures_; }

  /// Self-normalised weighted failure rate (0 when nothing accumulated).
  [[nodiscard]] double logical_error_rate() const;

  /// Kish effective sample size (Σw)²/Σw²; equals shots() for uniform
  /// weights.
  [[nodiscard]] double effective_shots() const;

  /// Wilson interval on the weighted rate at effective_shots() trials.
  [[nodiscard]] WilsonInterval wilson(double z = kZ95) const;

 private:
  const ShotDecoder* decoder_;
  be::Weighting weighting_;
  std::uint64_t shots_ = 0;
  std::uint64_t failures_ = 0;
  double weight_sum_ = 0.0;
  double weight_sq_sum_ = 0.0;
  double failure_weight_ = 0.0;
};

/// Execution knobs for one sweep point (registry-named, like everything in
/// the pipeline).
struct MemoryRunConfig {
  std::string strategy = "probabilistic";
  pts::StrategyConfig strategy_config;
  std::string backend = "stabilizer";
  BackendConfig backend_config;
  be::Schedule schedule = be::Schedule::kIndependent;
  std::size_t threads = 1;
  std::uint64_t seed = 0x5EEDBA5EDULL;
};

/// One row of a threshold study.
struct LogicalErrorPoint {
  std::string code;
  unsigned distance = 0;
  unsigned rounds = 0;
  std::string basis;
  std::string decoder;
  double noise = 0.0;
  double readout_noise = 0.0;
  std::uint64_t shots = 0;
  std::uint64_t failures = 0;
  double logical_error_rate = 0.0;
  double effective_shots = 0.0;
  WilsonInterval ci;
};

/// Run one workload through the pipeline (streaming — batches are decoded
/// as devices finish, never materialised) and summarise.
[[nodiscard]] LogicalErrorPoint run_memory_point(
    const MemoryWorkload& workload, const ShotDecoder& decoder,
    const MemoryRunConfig& run = {});

}  // namespace ptsbe::qec

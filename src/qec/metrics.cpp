#include "ptsbe/qec/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "ptsbe/common/error.hpp"
#include "ptsbe/common/record_runs.hpp"

namespace ptsbe::qec {

WilsonInterval wilson_interval(double failures, double trials, double z) {
  PTSBE_REQUIRE(trials >= 0.0 && failures >= 0.0 && failures <= trials,
                "wilson_interval needs 0 <= failures <= trials");
  PTSBE_REQUIRE(z > 0.0, "wilson_interval needs a positive z-score");
  if (trials == 0.0) return {0.0, 1.0};
  const double p = failures / trials;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / trials;
  const double centre = p + z2 / (2.0 * trials);
  const double margin =
      z * std::sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials));
  WilsonInterval out;
  // At the endpoints centre − margin (resp. centre + margin) is exactly
  // zero algebraically but not in floating point; pin the exact value.
  out.lower = failures == 0.0 ? 0.0
                              : std::max(0.0, (centre - margin) / denom);
  out.upper = failures == trials
                  ? 1.0
                  : std::min(1.0, (centre + margin) / denom);
  return out;
}

LogicalErrorAccumulator::LogicalErrorAccumulator(const ShotDecoder& decoder,
                                                 be::Weighting weighting)
    : decoder_(&decoder), weighting_(weighting) {}

void LogicalErrorAccumulator::consume(const be::TrajectoryBatch& batch) {
  const double v = be::shot_weight(batch, weighting_);
  if (v <= 0.0) return;
  // Equal adjacent records decode alike, so each run is decoded once; its
  // shots are still added one at a time, which keeps every sum bit for bit
  // what a per-shot loop accumulates.
  for_each_run(batch.records, [&](std::uint64_t record, std::uint64_t count) {
    const bool failed = decoder_->decode_shot(record) != 0;
    shots_ += count;
    if (failed) failures_ += count;
    for (std::uint64_t shot = 0; shot < count; ++shot) {
      weight_sum_ += v;
      weight_sq_sum_ += v * v;
      if (failed) failure_weight_ += v;
    }
  });
}

void LogicalErrorAccumulator::consume(const be::Result& result) {
  for (const be::TrajectoryBatch& batch : result.batches) consume(batch);
}

be::BatchSink LogicalErrorAccumulator::sink() {
  return [this](be::TrajectoryBatch&& batch) { consume(batch); };
}

double LogicalErrorAccumulator::logical_error_rate() const {
  return weight_sum_ > 0.0 ? failure_weight_ / weight_sum_ : 0.0;
}

double LogicalErrorAccumulator::effective_shots() const {
  return weight_sq_sum_ > 0.0 ? weight_sum_ * weight_sum_ / weight_sq_sum_
                              : 0.0;
}

WilsonInterval LogicalErrorAccumulator::wilson(double z) const {
  const double trials = effective_shots();
  const double failures =
      std::min(logical_error_rate() * trials, trials);  // FP-safe clamp
  return wilson_interval(failures, trials, z);
}

LogicalErrorPoint run_memory_point(const MemoryWorkload& workload,
                                   const ShotDecoder& decoder,
                                   const MemoryRunConfig& run) {
  Pipeline pipeline(workload.noisy);
  pipeline.strategy(run.strategy, run.strategy_config)
      .backend(run.backend, run.backend_config)
      .schedule(run.schedule)
      .threads(run.threads)
      .seed(run.seed);
  LogicalErrorAccumulator acc(decoder, pipeline.weighting());
  pipeline.run_streaming(acc.sink());

  LogicalErrorPoint point;
  point.code = workload.config.code;
  point.distance = workload.config.distance;
  point.rounds = workload.config.rounds;
  point.basis = to_string(workload.config.basis);
  point.decoder = decoder.name();
  point.noise = workload.config.noise;
  point.readout_noise = workload.config.effective_readout_noise();
  point.shots = acc.shots();
  point.failures = acc.failures();
  point.logical_error_rate = acc.logical_error_rate();
  point.effective_shots = acc.effective_shots();
  point.ci = acc.wilson();
  return point;
}

}  // namespace ptsbe::qec

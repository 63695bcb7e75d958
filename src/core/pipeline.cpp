#include "ptsbe/core/pipeline.hpp"

#include <utility>

#include "ptsbe/core/dataset.hpp"

namespace ptsbe {

be::Estimate RunResult::estimate(
    const std::function<double(std::uint64_t)>& f) const {
  return be::estimate(result, weighting, f);
}

be::Estimate RunResult::estimate_z_parity(std::uint64_t mask) const {
  return be::estimate_z_parity(result, weighting, mask);
}

be::Estimate RunResult::estimate_probability(
    const std::function<bool(std::uint64_t)>& predicate) const {
  return be::estimate_probability(result, weighting, predicate);
}

void RunResult::to_csv(const std::string& path) const {
  dataset::write_csv(path, result);
}

void RunResult::to_binary(const std::string& path) const {
  dataset::write_binary(path, result);
}

Pipeline::Pipeline(const Circuit& circuit, const NoiseModel& noise)
    : noisy_(noise.apply(circuit)) {}

Pipeline::Pipeline(NoisyCircuit noisy) : noisy_(std::move(noisy)) {}

Pipeline& Pipeline::strategy(std::string name, pts::StrategyConfig config) {
  strategy_name_ = std::move(name);
  strategy_config_ = std::move(config);
  return *this;
}

Pipeline& Pipeline::backend(std::string name, BackendConfig config) {
  exec_.backend = std::move(name);
  exec_.config = std::move(config);
  return *this;
}

Pipeline& Pipeline::schedule(be::Schedule schedule) {
  exec_.schedule = schedule;
  return *this;
}

Pipeline& Pipeline::threads(std::size_t num_threads) {
  exec_.threads = num_threads;
  return *this;
}

Pipeline& Pipeline::seed(std::uint64_t seed) {
  exec_.seed = seed;
  return *this;
}

Pipeline& Pipeline::cached_plan(std::shared_ptr<const ExecPlan> plan) {
  exec_.plan = std::move(plan);
  return *this;
}

be::Weighting Pipeline::weighting() const {
  return pts::make_strategy(strategy_name_)->weighting();
}

std::vector<TrajectorySpec> Pipeline::sample_with(
    const pts::Strategy& strat) const {
  // The master stream is subsequence 0 of the seed; BE's per-trajectory
  // substreams are subsequences 1..N, so PTS and BE never overlap.
  RngStream rng(exec_.seed);
  return strat.sample(noisy_, strategy_config_, rng);
}

std::vector<TrajectorySpec> Pipeline::sample() const {
  return sample_with(*pts::make_strategy(strategy_name_));
}

RunResult Pipeline::run() const {
  // One strategy instance supplies both the specs and the weighting, so
  // the pairing in RunResult holds by construction.
  const pts::StrategyPtr strat = pts::make_strategy(strategy_name_);
  const std::vector<TrajectorySpec> specs = sample_with(*strat);
  RunResult out;
  out.result = be::execute(noisy_, specs, exec_);
  out.weighting = strat->weighting();
  out.strategy = strategy_name_;
  out.backend = exec_.backend;
  out.num_specs = specs.size();
  return out;
}

be::StreamSummary Pipeline::run_streaming(const be::BatchSink& sink) const {
  return be::execute_streaming(noisy_, sample(), exec_, sink);
}

}  // namespace ptsbe

#include "ptsbe/core/strategy.hpp"

#include <utility>

namespace ptsbe::pts {

namespace {

/// A SiteFilter with no criteria set admits everything; skip the per-branch
/// filter calls entirely in that (common) case.
const SiteFilter* effective_filter(const StrategyConfig& config) {
  const SiteFilter& f = config.site_filter;
  const bool trivial =
      !f.gate_name.has_value() && !f.qubits.has_value() && !f.predicate;
  return trivial ? nullptr : &f;
}

/// CRTP-free helper: the built-ins differ only in name, weighting and the
/// free function they delegate to.
class NamedStrategy : public Strategy {
 public:
  NamedStrategy(std::string name, be::Weighting weighting)
      : name_(std::move(name)), weighting_(weighting) {}

  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }
  [[nodiscard]] be::Weighting weighting() const noexcept override {
    return weighting_;
  }

 private:
  std::string name_;
  be::Weighting weighting_;
};

class ProbabilisticStrategy final : public NamedStrategy {
 public:
  ProbabilisticStrategy()
      : NamedStrategy("probabilistic", be::Weighting::kDrawWeighted) {}

  [[nodiscard]] std::vector<TrajectorySpec> sample(
      const NoisyCircuit& noisy, const StrategyConfig& config,
      RngStream& rng) const override {
    // Draw-weighted estimation needs shot budgets ∝ draw frequency, so
    // merging is forced regardless of the config (Algorithm 2's discard
    // semantics remain available via pts::sample_probabilistic directly).
    Options options = config.options();
    options.merge_duplicates = true;
    return sample_probabilistic(noisy, options, rng,
                                effective_filter(config));
  }
};

class ProportionalStrategy final : public NamedStrategy {
 public:
  ProportionalStrategy()
      : NamedStrategy("proportional", be::Weighting::kDrawWeighted) {}

  [[nodiscard]] std::vector<TrajectorySpec> sample(
      const NoisyCircuit& noisy, const StrategyConfig& config,
      RngStream& rng) const override {
    const std::uint64_t total =
        config.total_shots != 0
            ? config.total_shots
            : static_cast<std::uint64_t>(config.nsamples) * config.nshots;
    return redistribute_proportional(
        sample_probabilistic(noisy, config.options(), rng,
                             effective_filter(config)),
        total);
  }
};

class BandStrategy final : public NamedStrategy {
 public:
  BandStrategy() : NamedStrategy("band", be::Weighting::kProbabilityWeighted) {}

  [[nodiscard]] std::vector<TrajectorySpec> sample(
      const NoisyCircuit& noisy, const StrategyConfig& config,
      RngStream& rng) const override {
    return filter_band(sample_probabilistic(noisy, config.options(), rng,
                                            effective_filter(config)),
                       config.p_min, config.p_max);
  }
};

class EnumerateStrategy final : public NamedStrategy {
 public:
  EnumerateStrategy()
      : NamedStrategy("enumerate", be::Weighting::kProbabilityWeighted) {}

  [[nodiscard]] std::vector<TrajectorySpec> sample(
      const NoisyCircuit& noisy, const StrategyConfig& config,
      RngStream& /*rng*/) const override {
    return enumerate_most_likely(noisy, config.probability_cutoff,
                                 config.nshots, config.max_results);
  }
};

class TwirlStrategy final : public NamedStrategy {
 public:
  TwirlStrategy()
      : NamedStrategy("twirl", be::Weighting::kProbabilityWeighted) {}

  [[nodiscard]] std::vector<TrajectorySpec> sample(
      const NoisyCircuit& noisy, const StrategyConfig& config,
      RngStream& rng) const override {
    return sample_pauli_twirled(noisy, config.options(), rng);
  }
};

class CorrelatedStrategy final : public NamedStrategy {
 public:
  CorrelatedStrategy()
      : NamedStrategy("correlated", be::Weighting::kProbabilityWeighted) {}

  [[nodiscard]] std::vector<TrajectorySpec> sample(
      const NoisyCircuit& noisy, const StrategyConfig& config,
      RngStream& rng) const override {
    return sample_spatially_correlated(noisy, config.options(), rng,
                                       config.boost, config.radius);
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

StrategyRegistry::StrategyRegistry() : Registry("strategy") {
  add("probabilistic", []() -> StrategyPtr {
    return std::make_unique<ProbabilisticStrategy>();
  });
  add("proportional", []() -> StrategyPtr {
    return std::make_unique<ProportionalStrategy>();
  });
  add("band", []() -> StrategyPtr { return std::make_unique<BandStrategy>(); });
  add("enumerate", []() -> StrategyPtr {
    return std::make_unique<EnumerateStrategy>();
  });
  add("twirl",
      []() -> StrategyPtr { return std::make_unique<TwirlStrategy>(); });
  add("correlated", []() -> StrategyPtr {
    return std::make_unique<CorrelatedStrategy>();
  });
}

StrategyRegistry& StrategyRegistry::instance() {
  static StrategyRegistry registry;
  return registry;
}

StrategyPtr make_strategy(const std::string& name) {
  return StrategyRegistry::instance().make(name);
}

}  // namespace ptsbe::pts

// The pluggable PTS strategy layer: every built-in strategy is reachable by
// registry name, wraps its pts.hpp free function faithfully, and declares
// the estimator weighting that keeps its specs unbiased — the contract the
// Pipeline facade relies on to make sampling/estimation mispairing
// inexpressible.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ptsbe/core/strategy.hpp"
#include "ptsbe/noise/channels.hpp"

namespace ptsbe {
namespace {

NoisyCircuit ghz_program(unsigned n = 4) {
  Circuit c(n);
  c.h(0);
  for (unsigned q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  c.measure_all();
  NoiseModel noise;
  noise.add_all_gate_noise(channels::depolarizing(0.02));
  return noise.apply(c);
}

TEST(StrategyRegistry, BuiltinsAreRegistered) {
  auto& registry = pts::StrategyRegistry::instance();
  for (const char* name : {"probabilistic", "proportional", "band",
                           "enumerate", "twirl", "correlated"})
    EXPECT_TRUE(registry.contains(name)) << name;
  EXPECT_FALSE(registry.contains("no-such-strategy"));
}

TEST(StrategyRegistry, NamesAreSortedAndNonEmpty) {
  const std::vector<std::string> names =
      pts::StrategyRegistry::instance().names();
  ASSERT_GE(names.size(), 6u);
  for (std::size_t i = 1; i < names.size(); ++i)
    EXPECT_LT(names[i - 1], names[i]);
}

TEST(StrategyRegistry, UnknownNameErrorListsRegisteredNames) {
  // Same failure shape as BackendRegistry: name the culprit, list what
  // exists, throw precondition_error.
  try {
    (void)pts::make_strategy("no-such-strategy");
    FAIL() << "expected precondition_error";
  } catch (const precondition_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown strategy 'no-such-strategy'"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("probabilistic"), std::string::npos) << message;
    EXPECT_NE(message.find("enumerate"), std::string::npos) << message;
  }
}

TEST(StrategyRegistry, DuplicateRegistrationThrows) {
  auto& registry = pts::StrategyRegistry::instance();
  EXPECT_THROW(
      registry.add(
          "probabilistic", []() -> pts::StrategyPtr { return nullptr; }),
      precondition_error);
  EXPECT_THROW(registry.add(
                   "", []() -> pts::StrategyPtr { return nullptr; }),
               precondition_error);
}

TEST(StrategyRegistry, PluginRegistrationRoundTrips) {
  auto& registry = pts::StrategyRegistry::instance();
  const std::string name = "test-plugin-strategy";
  if (!registry.contains(name)) {
    registry.add(name, []() -> pts::StrategyPtr {
      struct Plugin final : pts::Strategy {
        [[nodiscard]] const std::string& name() const noexcept override {
          static const std::string kName = "test-plugin-strategy";
          return kName;
        }
        [[nodiscard]] be::Weighting weighting() const noexcept override {
          return be::Weighting::kProbabilityWeighted;
        }
        [[nodiscard]] std::vector<TrajectorySpec> sample(
            const NoisyCircuit& noisy, const pts::StrategyConfig& config,
            RngStream& rng) const override {
          return pts::make_strategy("probabilistic")
              ->sample(noisy, config, rng);
        }
      };
      return std::make_unique<Plugin>();
    });
  }
  ASSERT_TRUE(registry.contains(name));
  const pts::StrategyPtr plugin = registry.make(name);
  EXPECT_EQ(plugin->name(), name);
  EXPECT_EQ(plugin->weighting(), be::Weighting::kProbabilityWeighted);
  const NoisyCircuit noisy = ghz_program();
  RngStream rng(3);
  EXPECT_FALSE(plugin->sample(noisy, {}, rng).empty());
}

// The satellite contract: deterministic spec sets (band windows, exhaustive
// enumeration) must be probability-weighted, stochastic draw frequencies
// (Algorithm 2 with merge, proportional redistribution) draw-weighted.
TEST(StrategyRegistry, WeightingAutoSelection) {
  const auto weighting_of = [](const char* name) {
    return pts::make_strategy(name)->weighting();
  };
  EXPECT_EQ(weighting_of("band"), be::Weighting::kProbabilityWeighted);
  EXPECT_EQ(weighting_of("enumerate"), be::Weighting::kProbabilityWeighted);
  EXPECT_EQ(weighting_of("probabilistic"), be::Weighting::kDrawWeighted);
  EXPECT_EQ(weighting_of("proportional"), be::Weighting::kDrawWeighted);
  // Tailored injection deliberately distorts draw frequencies, so only the
  // per-batch probability weighting is sound for those specs.
  EXPECT_EQ(weighting_of("twirl"), be::Weighting::kProbabilityWeighted);
  EXPECT_EQ(weighting_of("correlated"), be::Weighting::kProbabilityWeighted);
}

TEST(Strategies, ProbabilisticMatchesFreeFunction) {
  const NoisyCircuit noisy = ghz_program();
  pts::StrategyConfig config;
  config.nsamples = 300;
  config.nshots = 50;

  RngStream rng_a(11);
  const auto via_strategy =
      pts::make_strategy("probabilistic")->sample(noisy, config, rng_a);

  RngStream rng_b(11);
  pts::Options options;
  options.nsamples = 300;
  options.nshots = 50;
  options.merge_duplicates = true;  // StrategyConfig's default
  const auto via_free = pts::sample_probabilistic(noisy, options, rng_b);

  ASSERT_EQ(via_strategy.size(), via_free.size());
  for (std::size_t i = 0; i < via_free.size(); ++i) {
    EXPECT_TRUE(via_strategy[i].same_assignment(via_free[i])) << i;
    EXPECT_EQ(via_strategy[i].shots, via_free[i].shots) << i;
  }
}

TEST(Strategies, ProbabilisticForcesMergeForDrawWeighting) {
  // merge_duplicates = false would decouple shot budgets from draw
  // frequency and silently bias the strategy's declared kDrawWeighted
  // estimates — the adapter must override it.
  const NoisyCircuit noisy = ghz_program();
  pts::StrategyConfig config;
  config.nsamples = 300;
  config.nshots = 50;
  config.merge_duplicates = false;

  RngStream rng_a(11);
  const auto via_strategy =
      pts::make_strategy("probabilistic")->sample(noisy, config, rng_a);

  RngStream rng_b(11);
  pts::Options options;
  options.nsamples = 300;
  options.nshots = 50;
  options.merge_duplicates = true;
  const auto merged = pts::sample_probabilistic(noisy, options, rng_b);

  ASSERT_EQ(via_strategy.size(), merged.size());
  for (std::size_t i = 0; i < merged.size(); ++i)
    EXPECT_EQ(via_strategy[i].shots, merged[i].shots) << i;
}

TEST(Strategies, BandRespectsWindow) {
  const NoisyCircuit noisy = ghz_program();
  pts::StrategyConfig config;
  config.nsamples = 500;
  config.p_min = 1e-4;
  config.p_max = 1e-1;
  RngStream rng(5);
  const auto specs = pts::make_strategy("band")->sample(noisy, config, rng);
  ASSERT_FALSE(specs.empty());
  for (const TrajectorySpec& spec : specs) {
    EXPECT_GE(spec.nominal_probability, config.p_min);
    EXPECT_LE(spec.nominal_probability, config.p_max);
  }
}

TEST(Strategies, EnumerateIsSortedAndAboveCutoff) {
  const NoisyCircuit noisy = ghz_program();
  pts::StrategyConfig config;
  config.probability_cutoff = 1e-4;
  config.nshots = 77;
  RngStream rng(5);
  const auto specs =
      pts::make_strategy("enumerate")->sample(noisy, config, rng);
  ASSERT_FALSE(specs.empty());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_GE(specs[i].nominal_probability, config.probability_cutoff) << i;
    EXPECT_EQ(specs[i].shots, 77u) << i;
    if (i > 0) {
      EXPECT_GE(specs[i - 1].nominal_probability,
                specs[i].nominal_probability);
    }
  }
}

TEST(Strategies, ProportionalRedistributesTotalBudget) {
  const NoisyCircuit noisy = ghz_program();
  pts::StrategyConfig config;
  config.nsamples = 400;
  config.nshots = 10;
  config.total_shots = 100000;
  RngStream rng(9);
  const auto specs =
      pts::make_strategy("proportional")->sample(noisy, config, rng);
  ASSERT_FALSE(specs.empty());
  // Rounding may drop a few shots but the budget must be approximately met.
  const std::uint64_t total = total_shots(specs);
  EXPECT_NEAR(static_cast<double>(total), 100000.0, 400.0 / 2 + specs.size());
}

TEST(Strategies, SiteFilterRestrictsSampledBranches) {
  const NoisyCircuit noisy = ghz_program();
  pts::StrategyConfig config;
  config.nsamples = 400;
  config.site_filter.gate_name = "cx";
  RngStream rng(13);
  const auto specs =
      pts::make_strategy("probabilistic")->sample(noisy, config, rng);
  ASSERT_FALSE(specs.empty());
  for (const TrajectorySpec& spec : specs)
    for (const BranchChoice& bc : spec.branches) {
      const NoiseSite& site = noisy.sites()[bc.site];
      ASSERT_NE(site.after_op, NoiseSite::kBeforeCircuit);
      EXPECT_EQ(noisy.circuit().ops()[site.after_op].name, "cx");
    }
}

}  // namespace
}  // namespace ptsbe

#pragma once

/// \file strategy.hpp
/// \brief Pluggable PTS strategy interface and string-keyed registry.
///
/// The free functions in pts.hpp are the low-level sampler layer; this header
/// is the seam that makes them *components*: a `Strategy` turns a noisy
/// program into trajectory specifications under one unified `StrategyConfig`,
/// and a `StrategyRegistry` maps stable names to strategies so pipelines,
/// CLIs and config files select samplers the same way they already select
/// backends. Crucially, every strategy **declares the estimator weighting**
/// that keeps its specs statistically sound — the band/enumerate vs
/// draw-weighted mispairing that used to silently bias estimates is no
/// longer expressible through this layer.
///
/// Built-in strategies (registered at startup):
///   - "probabilistic"  Algorithm 2 draws with dedup/merge  → kDrawWeighted
///   - "proportional"   probabilistic + shot redistribution
///                      ∝ nominal probability               → kDrawWeighted
///   - "band"           probabilistic restricted to
///                      p ∈ [p_min, p_max]                  → kProbabilityWeighted
///   - "enumerate"      exhaustive most-likely enumeration
///                      above probability_cutoff            → kProbabilityWeighted
///   - "twirl"          tailored injection, uniformly
///                      scrambled error branches            → kProbabilityWeighted
///   - "correlated"     spatially correlated bursts
///                      (boost × radius)                    → kProbabilityWeighted

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ptsbe/common/rng.hpp"
#include "ptsbe/core/estimator.hpp"
#include "ptsbe/core/pts.hpp"
#include "ptsbe/core/registry.hpp"
#include "ptsbe/core/trajectory_spec.hpp"

namespace ptsbe::pts {

/// One configuration struct shared by every strategy. A strategy reads the
/// fields that apply to it and ignores the rest (mirroring BackendConfig),
/// so pipelines and CLIs can populate a single object from flags or files
/// without knowing which strategy will consume it.
struct StrategyConfig {
  /// Candidate trajectory draws (stochastic strategies).
  std::size_t nsamples = 100;
  /// Shots assigned to each accepted spec.
  std::uint64_t nshots = 1000;
  /// Merge duplicate assignments by summing shot budgets. Defaults to true
  /// here (unlike the low-level pts::Options): merging preserves the draw
  /// frequency the draw-weighted estimator relies on. "probabilistic"
  /// *forces* this to true — honouring false there would silently bias its
  /// declared kDrawWeighted estimates, the exact mispairing this layer
  /// exists to prevent. Probability-weighted strategies honour it as set.
  bool merge_duplicates = true;

  /// "band": keep specs with nominal probability in [p_min, p_max].
  double p_min = 0.0;
  double p_max = 1.0;

  /// "enumerate": joint-probability cutoff and result cap (0 = all).
  double probability_cutoff = 1e-6;
  std::size_t max_results = 0;

  /// "proportional": total shot budget to redistribute
  /// (0 = nsamples × nshots).
  std::uint64_t total_shots = 0;

  /// "correlated": neighbour firing boost (≥ 1) and qubit-index radius.
  double boost = 4.0;
  unsigned radius = 1;

  /// Site/branch selection criteria (strategies built on Algorithm 2's
  /// sampling loop: "probabilistic", "proportional", "band").
  SiteFilter site_filter;

  /// Low-level options view for the pts.hpp free functions.
  [[nodiscard]] Options options() const noexcept {
    return Options{nsamples, nshots, merge_duplicates};
  }
};

/// One PTS sampling strategy. Implementations are stateless and `sample` is
/// const and re-entrant; all per-call state arrives via the config and RNG.
class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Registry name this strategy is published under ("band", …).
  [[nodiscard]] virtual const std::string& name() const noexcept = 0;

  /// The estimator weighting under which this strategy's specs yield
  /// unbiased physical estimates. Pipelines carry this alongside the BE
  /// result so estimation cannot be mispaired with the sampling scheme.
  [[nodiscard]] virtual be::Weighting weighting() const noexcept = 0;

  /// Produce trajectory specifications for `noisy`.
  [[nodiscard]] virtual std::vector<TrajectorySpec> sample(
      const NoisyCircuit& noisy, const StrategyConfig& config,
      RngStream& rng) const = 0;
};

using StrategyPtr = std::unique_ptr<Strategy>;

/// Factory signature stored in the registry.
using StrategyFactory = std::function<StrategyPtr()>;

/// Process-wide strategy name → factory map: the six built-ins are
/// registered on first access; plugins may `add` more at any time before
/// use.
class StrategyRegistry final : public Registry<StrategyFactory> {
 public:
  /// The global registry.
  static StrategyRegistry& instance();

  /// Construct the strategy registered under `name`.
  /// \throws precondition_error for unknown names (the message lists the
  ///         registered names).
  [[nodiscard]] StrategyPtr make(const std::string& name) const {
    return find(name)();
  }

 private:
  StrategyRegistry();
};

/// Convenience: `StrategyRegistry::instance().make(name)`.
[[nodiscard]] StrategyPtr make_strategy(const std::string& name);

}  // namespace ptsbe::pts

// Tests for the Algorithm-1 baseline trajectory simulator: statistical
// convergence to the exact density-matrix distribution, fast-path/general
// path equivalence, work accounting.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <vector>

#include "ptsbe/densmat/density_matrix.hpp"
#include "ptsbe/noise/channels.hpp"
#include "ptsbe/trajectory/trajectory.hpp"

namespace ptsbe {
namespace {

/// Total variation distance between an empirical record distribution and an
/// exact probability vector over full basis indices.
double tvd(const std::vector<std::uint64_t>& records,
           const std::vector<double>& exact) {
  std::map<std::uint64_t, double> freq;
  for (auto r : records) freq[r] += 1.0 / records.size();
  double d = 0.0;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    const auto it = freq.find(i);
    const double f = it == freq.end() ? 0.0 : it->second;
    d += std::abs(f - exact[i]);
  }
  return d / 2.0;
}

NoisyCircuit noisy_bell(double p_depol, double gamma) {
  Circuit c(2);
  c.h(0).cx(0, 1);
  NoiseModel nm;
  if (p_depol > 0) nm.add_all_gate_noise(channels::depolarizing(p_depol));
  if (gamma > 0) nm.add_all_gate_noise(channels::amplitude_damping(gamma));
  return nm.apply(c);
}

TEST(Trajectory, NoiselessCircuitReproducesPureState) {
  Circuit c(2);
  c.h(0).cx(0, 1);
  const NoisyCircuit noisy = NoiseModel{}.apply(c);
  RngStream rng(1);
  const auto result = traj::run_statevector(noisy, 4000, rng);
  for (auto r : result.records) EXPECT_TRUE(r == 0b00 || r == 0b11);
}

TEST(Trajectory, ConvergesToDensityMatrixUnitaryMixture) {
  const NoisyCircuit noisy = noisy_bell(0.15, 0.0);
  DensityMatrix dm(2);
  dm.apply_noisy_circuit(noisy);
  RngStream rng(2);
  const auto result = traj::run_statevector(noisy, 20000, rng);
  EXPECT_LT(tvd(result.records, dm.probabilities()), 0.02);
}

TEST(Trajectory, ConvergesToDensityMatrixGeneralKraus) {
  const NoisyCircuit noisy = noisy_bell(0.0, 0.25);
  DensityMatrix dm(2);
  dm.apply_noisy_circuit(noisy);
  RngStream rng(3);
  const auto result = traj::run_statevector(noisy, 20000, rng);
  EXPECT_LT(tvd(result.records, dm.probabilities()), 0.02);
  // General channels must have exercised expectation evaluations.
  EXPECT_GT(result.stats.expectation_evaluations, 0u);
}

TEST(Trajectory, FastPathAndGeneralPathAgree) {
  // Unitary-mixture channel simulated both ways must give the same
  // distribution (the probabilities are state-independent either way).
  const NoisyCircuit noisy = noisy_bell(0.2, 0.0);
  DensityMatrix dm(2);
  dm.apply_noisy_circuit(noisy);
  traj::Options fast, general;
  fast.unitary_mixture_fast_path = true;
  general.unitary_mixture_fast_path = false;
  RngStream rng_a(4), rng_b(5);
  const auto ra = traj::run_statevector(noisy, 15000, rng_a, fast);
  const auto rb = traj::run_statevector(noisy, 15000, rng_b, general);
  EXPECT_LT(tvd(ra.records, dm.probabilities()), 0.025);
  EXPECT_LT(tvd(rb.records, dm.probabilities()), 0.025);
  // Fast path avoids expectation evaluations entirely.
  EXPECT_EQ(ra.stats.expectation_evaluations, 0u);
  EXPECT_GT(rb.stats.expectation_evaluations, 0u);
}

TEST(Trajectory, StatePreparationCountMatchesTrajectories) {
  const NoisyCircuit noisy = noisy_bell(0.1, 0.0);
  RngStream rng(6);
  traj::Options opt;
  const auto result = traj::run_statevector(noisy, 500, rng, opt);
  EXPECT_EQ(result.stats.state_preparations, 500u);
  EXPECT_EQ(result.records.size(), 500u);
}

TEST(Trajectory, MpsBackendMatchesDensityMatrix) {
  const NoisyCircuit noisy = noisy_bell(0.15, 0.0);
  DensityMatrix dm(2);
  dm.apply_noisy_circuit(noisy);
  RngStream rng(8);
  const auto result = traj::run_mps(noisy, 15000, rng, MpsConfig{});
  EXPECT_LT(tvd(result.records, dm.probabilities()), 0.025);
}

TEST(Trajectory, MpsBackendGeneralKraus) {
  const NoisyCircuit noisy = noisy_bell(0.0, 0.3);
  DensityMatrix dm(2);
  dm.apply_noisy_circuit(noisy);
  RngStream rng(9);
  const auto result = traj::run_mps(noisy, 15000, rng, MpsConfig{});
  EXPECT_LT(tvd(result.records, dm.probabilities()), 0.025);
}

TEST(Trajectory, MeasuredSubsetExtraction) {
  Circuit c(3);
  c.x(2).measure(2);
  const NoisyCircuit noisy = NoiseModel{}.apply(c);
  RngStream rng(10);
  const auto result = traj::run_statevector(noisy, 50, rng);
  for (auto r : result.records) EXPECT_EQ(r, 1u);  // only the measured bit
}

}  // namespace
}  // namespace ptsbe

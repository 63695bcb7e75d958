// Tests for the MPS tensor-network backend: exact agreement with the
// statevector at unbounded bond dimension, truncation behaviour, perfect
// sampling with and without cached environments.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "ptsbe/circuit/circuit.hpp"
#include "ptsbe/core/batched_execution.hpp"
#include "ptsbe/statevector/statevector.hpp"
#include "ptsbe/tensornet/mps.hpp"
#include "ptsbe/trajectory/trajectory.hpp"

namespace ptsbe {
namespace {

Circuit random_clifford_t_circuit(unsigned n, unsigned depth, std::uint64_t seed) {
  RngStream rng(seed);
  Circuit c(n);
  for (unsigned d = 0; d < depth; ++d) {
    for (unsigned q = 0; q < n; ++q) {
      switch (rng.uniform_index(5)) {
        case 0: c.h(q); break;
        case 1: c.t(q); break;
        case 2: c.s(q); break;
        case 3: c.rx(q, rng.uniform(0, 3.1)); break;
        default: break;
      }
    }
    for (unsigned q = 0; q + 1 < n; ++q)
      if (rng.uniform() < 0.4) c.cx(q, q + 1);
    // Occasional long-range gate to exercise swap routing.
    if (n > 2 && rng.uniform() < 0.5)
      c.cz(0, n - 1);
  }
  return c;
}

TEST(Mps, InitialStateIsZero) {
  MpsState mps(4);
  EXPECT_NEAR(std::abs(mps.amplitude(0) - cplx{1, 0}), 0.0, 1e-14);
  EXPECT_NEAR(mps.norm2(), 1.0, 1e-14);
  EXPECT_EQ(mps.max_bond_dim(), 1u);
}

TEST(Mps, SingleQubitGate) {
  MpsState mps(1);
  mps.apply_gate(gates::H(), std::array{0u});
  EXPECT_NEAR(std::abs(mps.amplitude(0)), std::sqrt(0.5), 1e-14);
  EXPECT_NEAR(std::abs(mps.amplitude(1)), std::sqrt(0.5), 1e-14);
}

TEST(Mps, BellStateAdjacent) {
  MpsState mps(2);
  mps.apply_gate(gates::H(), std::array{0u});
  mps.apply_gate(gates::CX(), std::array{0u, 1u});
  EXPECT_NEAR(std::abs(mps.amplitude(0b00)), std::sqrt(0.5), 1e-12);
  EXPECT_NEAR(std::abs(mps.amplitude(0b11)), std::sqrt(0.5), 1e-12);
  EXPECT_NEAR(std::abs(mps.amplitude(0b01)), 0.0, 1e-12);
  EXPECT_EQ(mps.max_bond_dim(), 2u);
}

TEST(Mps, ReversedControlTarget) {
  // CX with control above target exercises the SWAP-conjugation path.
  MpsState mps(2);
  StateVector sv(2);
  for (auto q : {0u, 1u}) {
    mps.apply_gate(gates::H(), std::array{q});
    sv.apply_gate(gates::H(), std::array{q});
  }
  mps.apply_gate(gates::CX(), std::array{1u, 0u});
  sv.apply_gate(gates::CX(), std::array{1u, 0u});
  mps.apply_gate(gates::T(), std::array{0u});
  sv.apply_gate(gates::T(), std::array{0u});
  const auto dense = mps.to_statevector();
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_NEAR(std::abs(dense[i] - sv.amplitude(i)), 0.0, 1e-10);
}

class MpsVsStatevector : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MpsVsStatevector, ExactAgreementUnbounded) {
  const unsigned n = 6;
  const Circuit c = random_clifford_t_circuit(n, 5, GetParam());
  MpsState mps(n);  // unbounded bond, tiny truncation error
  StateVector sv(n);
  mps.apply_circuit(c);
  sv.apply_circuit(c);
  const auto dense = mps.to_statevector();
  double max_diff = 0;
  for (std::uint64_t i = 0; i < (1u << n); ++i)
    max_diff = std::max(max_diff, std::abs(dense[i] - sv.amplitude(i)));
  EXPECT_LT(max_diff, 1e-8) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MpsVsStatevector,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(Mps, LongRangeGateMatchesStatevector) {
  const unsigned n = 5;
  MpsState mps(n);
  StateVector sv(n);
  mps.apply_gate(gates::H(), std::array{0u});
  sv.apply_gate(gates::H(), std::array{0u});
  mps.apply_gate(gates::CX(), std::array{0u, 4u});
  sv.apply_gate(gates::CX(), std::array{0u, 4u});
  const auto dense = mps.to_statevector();
  for (std::uint64_t i = 0; i < (1u << n); ++i)
    EXPECT_NEAR(std::abs(dense[i] - sv.amplitude(i)), 0.0, 1e-10);
}

TEST(Mps, TruncationCapsBondAndRecordsLoss) {
  MpsConfig cfg;
  cfg.max_bond = 2;
  const unsigned n = 6;
  MpsState mps(n, cfg);
  const Circuit c = random_clifford_t_circuit(n, 6, 42);
  mps.apply_circuit(c);
  EXPECT_LE(mps.max_bond_dim(), 2u);
  EXPECT_GT(mps.stats().svd_count, 0u);
  // A depth-6 random circuit on 6 qubits generically exceeds χ=2, so some
  // weight must have been discarded.
  EXPECT_GT(mps.stats().total_discarded_weight, 0.0);
  // Norm decreased by the discarded weight but stays close to 1.
  EXPECT_LE(mps.norm2(), 1.0 + 1e-9);
}

TEST(Mps, KrausBranchProbabilityMatchesStatevector) {
  const unsigned n = 4;
  const Circuit c = random_clifford_t_circuit(n, 4, 7);
  MpsState mps(n);
  StateVector sv(n);
  mps.apply_circuit(c);
  sv.apply_circuit(c);
  const double gamma = 0.3;
  const Matrix k(2, 2, {0.0, std::sqrt(gamma), 0.0, 0.0});
  for (unsigned q = 0; q < n; ++q)
    EXPECT_NEAR(mps.branch_probability(k, std::array{q}),
                sv.branch_probability(k, std::array{q}), 1e-9);
}

TEST(Mps, KrausBranchApplicationRenormalizes) {
  MpsState mps(3);
  mps.apply_gate(gates::H(), std::array{1u});
  const double gamma = 0.5;
  const Matrix k(2, 2, {0.0, std::sqrt(gamma), 0.0, 0.0});
  const double p = mps.apply_kraus_branch(k, std::array{1u});
  EXPECT_NEAR(p, gamma / 2, 1e-10);
  EXPECT_NEAR(mps.norm2(), 1.0, 1e-10);
}

TEST(Mps, TwoQubitKrausBranch) {
  MpsState mps(3);
  mps.apply_gate(gates::H(), std::array{0u});
  mps.apply_gate(gates::CX(), std::array{0u, 1u});
  // XX branch of a correlated channel (scaled unitary → probability equals
  // the scale regardless of state).
  Matrix xx = kron(gates::X(), gates::X());
  xx *= cplx{std::sqrt(0.3), 0.0};
  const double p = mps.apply_kraus_branch(xx, std::array{0u, 1u});
  EXPECT_NEAR(p, 0.3, 1e-9);
  EXPECT_NEAR(mps.norm2(), 1.0, 1e-9);
}

TEST(Mps, SamplingMatchesAmplitudes) {
  const unsigned n = 4;
  const Circuit c = random_clifford_t_circuit(n, 4, 11);
  MpsState mps(n);
  mps.apply_circuit(c);
  const auto dense = mps.to_statevector();
  RngStream rng(21);
  const std::size_t m = 40000;
  const auto shots = mps.sample_records(m, rng, {});
  std::map<std::uint64_t, double> freq;
  for (auto s : shots) freq[s] += 1.0 / m;
  for (std::uint64_t i = 0; i < (1u << n); ++i)
    EXPECT_NEAR(freq[i], std::norm(dense[i]), 0.02) << "index " << i;
}

TEST(Mps, UncachedSamplerSameDistribution) {
  const unsigned n = 3;
  const Circuit c = random_clifford_t_circuit(n, 3, 13);
  MpsState mps(n);
  mps.apply_circuit(c);
  const auto dense = mps.to_statevector();
  RngStream rng(22);
  std::map<std::uint64_t, double> freq;
  const std::size_t m = 20000;
  for (std::size_t i = 0; i < m; ++i) freq[mps.sample_one_uncached(rng, {})] += 1.0 / m;
  for (std::uint64_t i = 0; i < (1u << n); ++i)
    EXPECT_NEAR(freq[i], std::norm(dense[i]), 0.02);
}

TEST(Mps, GhzSamplingOnlyTwoOutcomes) {
  const unsigned n = 10;
  MpsState mps(n);
  mps.apply_gate(gates::H(), std::array{0u});
  for (unsigned q = 0; q + 1 < n; ++q)
    mps.apply_gate(gates::CX(), std::array{q, q + 1});
  RngStream rng(23);
  const auto shots = mps.sample_records(2000, rng, {});
  const std::uint64_t all_ones = (1ULL << n) - 1;
  int ones = 0;
  for (auto s : shots) {
    ASSERT_TRUE(s == 0 || s == all_ones) << s;
    ones += (s == all_ones);
  }
  EXPECT_NEAR(ones / 2000.0, 0.5, 0.05);
}

TEST(Mps, FortyQubitGhzIsCheap) {
  // Far beyond statevector reach on this host — the point of the TN backend.
  const unsigned n = 40;
  MpsState mps(n);
  mps.apply_gate(gates::H(), std::array{0u});
  for (unsigned q = 0; q + 1 < n; ++q)
    mps.apply_gate(gates::CX(), std::array{q, q + 1});
  EXPECT_EQ(mps.max_bond_dim(), 2u);
  RngStream rng(24);
  const auto shots = mps.sample_records(100, rng, {});
  const std::uint64_t all_ones = (1ULL << n) - 1;
  for (auto s : shots) EXPECT_TRUE(s == 0 || s == all_ones);
}

TEST(Mps, ResetClearsState) {
  MpsState mps(3);
  mps.apply_gate(gates::H(), std::array{0u});
  mps.apply_gate(gates::CX(), std::array{0u, 2u});
  mps.reset();
  EXPECT_NEAR(std::abs(mps.amplitude(0) - cplx{1, 0}), 0.0, 1e-14);
  EXPECT_EQ(mps.max_bond_dim(), 1u);
}

TEST(Mps, RecordsOfChainsWiderThan64Qubits) {
  // Qubit 65 is |1⟩ and qubit 1 is |0⟩: every record of (1, 65) is 0b10.
  Circuit c(66);
  c.x(65).measure(1).measure(65);
  const NoisyCircuit noisy = NoiseModel().apply(c);
  TrajectorySpec spec;
  spec.shots = 16;
  for (const be::Schedule schedule :
       {be::Schedule::kIndependent, be::Schedule::kSharedPrefix}) {
    for (const char* backend : {"mps", "stabilizer"}) {
      SCOPED_TRACE(std::string(backend) + " " + be::to_string(schedule));
      be::Options options;
      options.backend = backend;
      options.schedule = schedule;
      const be::Result result = be::execute(noisy, {spec}, options);
      ASSERT_EQ(result.batches.size(), 1u);
      EXPECT_EQ(result.batches[0].records, std::vector<std::uint64_t>(16, 2));
    }
  }
  RngStream rng(3);
  EXPECT_EQ(traj::run_mps(noisy, 8, rng, MpsConfig{}).records,
            std::vector<std::uint64_t>(8, 2));

  // A record of all 66 qubits does not fit a word.
  MpsState wide(66);
  EXPECT_THROW((void)wide.sample_records(1, rng, {}), precondition_error);
  EXPECT_THROW((void)wide.sample_one_uncached(rng, {}), precondition_error);
  EXPECT_EQ(wide.sample_one_uncached(rng, std::vector<unsigned>{65, 0}), 0u);
}

}  // namespace
}  // namespace ptsbe

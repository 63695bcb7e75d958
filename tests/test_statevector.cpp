// Unit + property tests for the statevector backend: gate kernels against
// dense matrix algebra, Kraus branches (and the apply_kraus_branch and
// apply_kraus_branches contracts every forkable state shares), bulk
// sampling statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <vector>

#include "ptsbe/circuit/circuit.hpp"
#include "ptsbe/common/bits.hpp"
#include "ptsbe/core/backend.hpp"
#include "ptsbe/densmat/density_matrix.hpp"
#include "ptsbe/statevector/statevector.hpp"
#include "ptsbe/tensornet/mps.hpp"
#include "on_worker.hpp"

namespace ptsbe {
namespace {

constexpr double kInvSqrt2 = 0.7071067811865475244;

TEST(StateVector, InitialState) {
  StateVector sv(3);
  EXPECT_EQ(sv.dim(), 8u);
  EXPECT_EQ(sv.amplitude(0), (cplx{1, 0}));
  EXPECT_NEAR(sv.norm2(), 1.0, 1e-14);
}

TEST(StateVector, HadamardCreatesSuperposition) {
  StateVector sv(1);
  sv.apply_gate(gates::H(), std::array{0u});
  EXPECT_NEAR(std::abs(sv.amplitude(0) - cplx{kInvSqrt2, 0}), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(sv.amplitude(1) - cplx{kInvSqrt2, 0}), 0.0, 1e-14);
}

TEST(StateVector, BellState) {
  StateVector sv(2);
  sv.apply_gate(gates::H(), std::array{0u});
  sv.apply_gate(gates::CX(), std::array{0u, 1u});
  EXPECT_NEAR(std::abs(sv.amplitude(0b00)), kInvSqrt2, 1e-14);
  EXPECT_NEAR(std::abs(sv.amplitude(0b11)), kInvSqrt2, 1e-14);
  EXPECT_NEAR(std::abs(sv.amplitude(0b01)), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(sv.amplitude(0b10)), 0.0, 1e-14);
}

TEST(StateVector, CxControlIsFirstListedQubit) {
  // |q1 q0> = |01> (control q0=1): CX(0→1) flips q1 → |11>.
  StateVector sv(2);
  sv.apply_gate(gates::X(), std::array{0u});
  sv.apply_gate(gates::CX(), std::array{0u, 1u});
  EXPECT_NEAR(std::abs(sv.amplitude(0b11)), 1.0, 1e-14);
  // And with control q1=0 nothing happens.
  StateVector sv2(2);
  sv2.apply_gate(gates::CX(), std::array{1u, 0u});
  EXPECT_NEAR(std::abs(sv2.amplitude(0b00)), 1.0, 1e-14);
}

// Property: applying a gate via the kernel equals multiplying the dense
// full-register matrix, for every qubit placement.
class KernelVsDense : public ::testing::TestWithParam<unsigned> {};

Matrix embed1(const Matrix& g, unsigned q, unsigned n) {
  Matrix full = Matrix::identity(1);
  for (unsigned i = 0; i < n; ++i)
    full = kron(i == q ? g : gates::I(), full);  // qubit 0 = LSB → rightmost
  return full;
}

TEST_P(KernelVsDense, SingleQubitAllPositions) {
  const unsigned n = 4;
  const unsigned q = GetParam();
  const Matrix g = gates::U3(0.7, 0.3, 1.1);
  // Random-ish initial state via a short circuit.
  StateVector sv(n);
  sv.apply_gate(gates::H(), std::array{0u});
  sv.apply_gate(gates::CX(), std::array{0u, 2u});
  sv.apply_gate(gates::T(), std::array{2u});
  sv.apply_gate(gates::RY(0.4), std::array{3u});
  std::vector<cplx> before(sv.amplitudes().begin(), sv.amplitudes().end());
  sv.apply_gate(g, std::array{q});
  const Matrix full = embed1(g, q, n);
  for (std::uint64_t i = 0; i < sv.dim(); ++i) {
    cplx want{0, 0};
    for (std::uint64_t j = 0; j < sv.dim(); ++j) want += full(i, j) * before[j];
    EXPECT_NEAR(std::abs(sv.amplitude(i) - want), 0.0, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Positions, KernelVsDense,
                         ::testing::Values(0u, 1u, 2u, 3u));

TEST(StateVector, TwoQubitKernelMatchesKron) {
  // CZ is symmetric; use CX on all ordered pairs of a 3-qubit register and
  // compare against the general k-qubit path (which gathers explicitly).
  for (unsigned a = 0; a < 3; ++a)
    for (unsigned b = 0; b < 3; ++b) {
      if (a == b) continue;
      StateVector fast(3), slow(3);
      for (StateVector* sv : {&fast, &slow}) {
        sv->apply_gate(gates::H(), std::array{0u});
        sv->apply_gate(gates::H(), std::array{1u});
        sv->apply_gate(gates::T(), std::array{2u});
      }
      fast.apply_gate(gates::CX(), std::array{a, b});
      // Route via 3-qubit embedding to exercise apply_matrix_k.
      Matrix g3 = kron(Matrix::identity(2), gates::CX());
      slow.apply_gate(g3, std::array{a, b, 3u - a - b});
      for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_NEAR(std::abs(fast.amplitude(i) - slow.amplitude(i)), 0.0, 1e-12)
            << "pair " << a << "," << b;
    }
}

TEST(StateVector, ApplyCircuitMatchesManual) {
  Circuit c(2);
  c.h(0).cx(0, 1).z(1);
  StateVector a(2), b(2);
  a.apply_circuit(c);
  b.apply_gate(gates::H(), std::array{0u});
  b.apply_gate(gates::CX(), std::array{0u, 1u});
  b.apply_gate(gates::Z(), std::array{1u});
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_EQ(a.amplitude(i), b.amplitude(i));
}

TEST(StateVector, BranchProbabilityMatchesDefinition) {
  StateVector sv(2);
  sv.apply_gate(gates::H(), std::array{0u});
  // K = sqrt(gamma)|0><1| on qubit 0: <psi|K†K|psi> = gamma*P(q0=1) = gamma/2.
  const double gamma = 0.3;
  const Matrix k(2, 2, {0.0, std::sqrt(gamma), 0.0, 0.0});
  EXPECT_NEAR(sv.branch_probability(k, std::array{0u}), gamma / 2, 1e-12);
}

TEST(StateVector, KrausBranchRenormalizes) {
  StateVector sv(1);
  sv.apply_gate(gates::H(), std::array{0u});
  const double gamma = 0.4;
  const Matrix k(2, 2, {0.0, std::sqrt(gamma), 0.0, 0.0});
  const double p = sv.apply_kraus_branch(k, std::array{0u});
  EXPECT_NEAR(p, gamma / 2, 1e-12);
  EXPECT_NEAR(sv.norm2(), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(sv.amplitude(0)), 1.0, 1e-12);  // decayed to |0>
}

double norm_of(StateVector& s) { return s.norm2(); }
double norm_of(DensityMatrix& s) { return s.trace_real(); }
double norm_of(MpsState& s) { return s.norm2(); }

/// The apply_kraus_branch contract every forkable state shares: the plan
/// walk decides realizability from the returned norm alone.
template <typename State>
void expect_kraus_branch_contract() {
  const std::array q0{0u};
  // |0><1| annihilates |0>: exactly zero, returned rather than thrown.
  const Matrix lower(2, 2, {0.0, 1.0, 0.0, 0.0});
  State zero(1);
  double p = -1.0;
  EXPECT_NO_THROW(p = zero.apply_kraus_branch(lower, q0));
  EXPECT_EQ(p, 0.0);

  // A NaN state still fails loudly.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  State poisoned(1);
  poisoned.apply_gate(Matrix(2, 2, {nan, nan, nan, nan}), q0);
  EXPECT_THROW((void)poisoned.apply_kraus_branch(lower, q0),
               precondition_error);

  // Above the cut: the probability branch_probability predicts, and the
  // state renormalised.
  const Matrix decay(2, 2, {0.0, std::sqrt(0.4), 0.0, 0.0});
  State bell(2);
  bell.apply_gate(gates::H(), q0);
  bell.apply_gate(gates::CX(), std::array{0u, 1u});
  const double predicted = bell.branch_probability(decay, q0);
  EXPECT_NEAR(bell.apply_kraus_branch(decay, q0), predicted, 1e-12);
  EXPECT_NEAR(norm_of(bell), 1.0, 1e-12);
}

/// The run call every forkable state shares, through the backend's
/// `SimState`: a run's probabilities are the one-site calls' bits, a zero
/// branch mid-run stops the run there and reports its count, and a NaN
/// state throws.
template <typename State>
void expect_kraus_run_contract(const std::string& backend) {
  const std::array q0{0u}, q1{1u};
  const Matrix decay(2, 2, {0.0, std::sqrt(0.4), 0.0, 0.0});
  const Matrix keep(2, 2, {1.0, 0.0, 0.0, std::sqrt(0.6)});
  const auto prepare = [&](auto& state) {
    state.apply_gate(gates::H(), q0);
    state.apply_gate(gates::CX(), std::array{0u, 1u});
    state.apply_gate(gates::RY(0.7), q1);
  };
  State one_by_one(2);
  prepare(one_by_one);
  const std::vector<double> expected = {
      one_by_one.apply_kraus_branch(keep, q0),
      one_by_one.apply_kraus_branch(decay, q1),
      one_by_one.apply_kraus_branch(keep, q1)};
  const BackendPtr factory = make_backend(backend);
  const std::vector<KrausBranch> run = {
      {&keep, q0}, {&decay, q1}, {&keep, q1}};
  std::vector<double> p(run.size(), -1.0);
  SimStatePtr state = factory->make_state(2);
  prepare(*state);
  EXPECT_EQ(state->apply_kraus_branches(run, 1e-14, p), run.size());
  EXPECT_EQ(p, expected);

  // q0 decays to |0⟩, so a second decay is exactly zero: the run stops
  // there, and the site after it is not applied.
  const std::vector<KrausBranch> dead = {
      {&decay, q0}, {&decay, q0}, {&keep, q1}};
  std::fill(p.begin(), p.end(), -1.0);
  SimStatePtr dying = factory->make_state(2);
  prepare(*dying);
  EXPECT_EQ(dying->apply_kraus_branches(dead, 1e-14, p), 2u);
  EXPECT_GT(p[0], 0.0);
  EXPECT_EQ(p[1], 0.0);
  EXPECT_EQ(p[2], -1.0);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  SimStatePtr poisoned = factory->make_state(2);
  poisoned->apply_gate(Matrix(2, 2, {nan, nan, nan, nan}), q0);
  EXPECT_THROW((void)poisoned->apply_kraus_branches(run, 1e-14, p),
               precondition_error);
}

TEST(ForkableStates, ApplyKrausBranchContract) {
  {
    SCOPED_TRACE("statevector");
    expect_kraus_branch_contract<StateVector>();
    expect_kraus_run_contract<StateVector>("statevector");
  }
  {
    SCOPED_TRACE("densmat");
    expect_kraus_branch_contract<DensityMatrix>();
    expect_kraus_run_contract<DensityMatrix>("densmat");
  }
  {
    SCOPED_TRACE("mps");
    expect_kraus_branch_contract<MpsState>();
    expect_kraus_run_contract<MpsState>("mps");
  }
}

/// A run of sites on a state of several general-Kraus units — diagonal,
/// dense and two-qubit K, below and above the block width, so fused sweeps
/// and three-sweep sites hand the pending rescale to each other — leaves
/// the amplitude bytes and probability bits of the same sites applied one
/// call at a time, each renormalising before the next.
TEST(StateVector, KrausRunEqualsOneSiteCalls) {
  const unsigned n = 17;
  StateVector one_by_one(n);
  for (unsigned q = 0; q < n; ++q)
    one_by_one.apply_gate(gates::RY(0.3 + 0.1 * q), std::array{q});
  for (unsigned q = 0; q + 1 < n; q += 2)
    one_by_one.apply_gate(gates::CX(), std::array{q, q + 1});
  StateVector batched = one_by_one;
  const Matrix keep(2, 2, {1.0, 0.0, 0.0, std::sqrt(0.7)});
  const Matrix decay(2, 2, {0.0, std::sqrt(0.3), 0.0, 0.0});
  const Matrix pair = kron(decay, keep);
  const std::array<unsigned, 1> q[] = {{0}, {15}, {7}, {16}};
  const std::array<unsigned, 2> q2{14, 3};
  const std::vector<KrausBranch> run = {
      {&keep, q[0]}, {&decay, q[1]}, {&pair, q2}, {&keep, q[2]},
      {&decay, q[3]}};
  std::vector<double> expected;
  for (const KrausBranch& site : run)
    expected.push_back(one_by_one.apply_kraus_branch(*site.k, site.qubits));
  std::vector<double> p(run.size());
  EXPECT_EQ(batched.apply_kraus_branches(run, 1e-14, p), run.size());
  EXPECT_EQ(p, expected);
  const auto a = one_by_one.amplitudes(), b = batched.amplitudes();
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0);
  EXPECT_NEAR(batched.norm2(), 1.0, 1e-12);
}

TEST(StateVector, ReductionBitsIgnoreExecutorWorkers) {
  // 2^16 amplitudes: several 2^14-item blocks for norm2, and for
  // branch_probability's 1-qubit groups. Random rotations and a CX
  // brickwork give every amplitude a different magnitude.
  StateVector sv(16);
  RngStream rng(2024);
  for (unsigned layer = 0; layer < 3; ++layer) {
    for (unsigned q = 0; q < sv.num_qubits(); ++q) {
      sv.apply_gate(gates::RY(6.0 * rng.uniform()), std::array{q});
      sv.apply_gate(gates::RZ(6.0 * rng.uniform()), std::array{q});
    }
    for (unsigned q = layer % 2; q + 1 < sv.num_qubits(); q += 2)
      sv.apply_gate(gates::CX(), std::array{q, q + 1});
  }
  const Matrix decay(2, 2, {0.0, std::sqrt(0.3), 0.0, 0.0});
  const Matrix pair = kron(decay, gates::RY(0.9));
  const auto reductions = [&] {
    std::vector<double> out = {sv.norm2()};
    for (unsigned q = 0; q < sv.num_qubits(); ++q)
      out.push_back(sv.branch_probability(decay, std::array{q}));
    for (unsigned q = 0; q + 1 < sv.num_qubits(); ++q)
      out.push_back(sv.branch_probability(pair, std::array{q, q + 1}));
    return out;
  };
  const std::vector<double> serial = test::on_worker(1, reductions);
  EXPECT_NEAR(serial[0], 1.0, 1e-12);
  // Exact equality: the same bits, not merely close values, whichever
  // workers summed which blocks, and off the executor too.
  for (int rep = 0; rep < 4; ++rep)
    EXPECT_EQ(serial, test::on_worker(4, reductions));
  EXPECT_EQ(serial, reductions());
}

TEST(DensityMatrix, KrausBitsIgnoreExecutorWorkers) {
  // 8 qubits: 4^8 entries, four 2^14-entry slices of the rescale.
  DensityMatrix dm(8);
  for (unsigned q = 0; q < dm.num_qubits(); ++q)
    dm.apply_gate(gates::RY(0.4 + 0.3 * q), std::array{q});
  for (unsigned q = 0; q + 1 < dm.num_qubits(); ++q)
    dm.apply_gate(gates::CX(), std::array{q, q + 1});
  const Matrix decay(2, 2, {0.0, std::sqrt(0.3), 0.0, 0.0});
  const auto branch = [&] {
    DensityMatrix out = dm;
    const double p = out.apply_kraus_branch(decay, std::array{5u});
    std::vector<double> bits = {p};
    for (std::uint64_t r = 0; r < out.dim(); ++r)
      for (std::uint64_t c = 0; c < out.dim(); ++c) {
        bits.push_back(out.element(r, c).real());
        bits.push_back(out.element(r, c).imag());
      }
    return bits;
  };
  const std::vector<double> serial = test::on_worker(1, branch);
  EXPECT_GT(serial[0], 0.0);
  for (int rep = 0; rep < 4; ++rep)
    EXPECT_EQ(serial, test::on_worker(4, branch));
  EXPECT_EQ(serial, branch());
}

TEST(StateVector, ProbabilityOne) {
  StateVector sv(2);
  sv.apply_gate(gates::RY(2 * std::acos(std::sqrt(0.3))), std::array{1u});
  // P(q1 = 1) = |a_2|^2 + |a_3|^2; qubit 0 stays in |0>.
  EXPECT_NEAR(std::norm(sv.amplitude(2)) + std::norm(sv.amplitude(3)), 0.7,
              1e-12);
  EXPECT_NEAR(std::norm(sv.amplitude(1)) + std::norm(sv.amplitude(3)), 0.0,
              1e-12);
}

TEST(StateVector, ExpectationPauli) {
  StateVector sv(2);
  sv.apply_gate(gates::H(), std::array{0u});
  sv.apply_gate(gates::CX(), std::array{0u, 1u});
  // Bell state: <XX> = 1, <ZZ> = 1, <ZI> = 0.
  EXPECT_NEAR(sv.expectation_pauli("XX", std::array{0u, 1u}), 1.0, 1e-12);
  EXPECT_NEAR(sv.expectation_pauli("ZZ", std::array{0u, 1u}), 1.0, 1e-12);
  EXPECT_NEAR(sv.expectation_pauli("ZI", std::array{0u, 1u}), 0.0, 1e-12);
}

TEST(StateVector, FidelityOfOrthogonalStates) {
  StateVector a(1), b(1);
  b.apply_gate(gates::X(), std::array{0u});
  EXPECT_NEAR(a.fidelity(b), 0.0, 1e-14);
  EXPECT_NEAR(a.fidelity(a), 1.0, 1e-14);
}

TEST(StateVector, BulkSamplerMatchesDistribution) {
  StateVector sv(2);
  sv.apply_gate(gates::RY(2 * std::asin(std::sqrt(0.2))), std::array{0u});
  // P(q0=1) = 0.2.
  RngStream rng(77);
  const auto shots = sv.sample_shots(50000, rng);
  double ones = 0;
  for (std::uint64_t s : shots) ones += s & 1;
  EXPECT_NEAR(ones / 50000.0, 0.2, 0.01);
}

TEST(StateVector, BulkSamplerMatchesPerShotSampler) {
  // Same state, both samplers must agree in distribution.
  StateVector sv(3);
  Circuit c(3);
  c.h(0).cx(0, 1).ry(2, 0.9);
  sv.apply_circuit(c);
  RngStream rng_a(5), rng_b(6);
  std::map<std::uint64_t, double> bulk, single;
  const std::size_t m = 40000;
  for (std::uint64_t s : sv.sample_shots(m, rng_a)) bulk[s] += 1.0 / m;
  for (std::size_t i = 0; i < m; ++i) single[sv.sample_one(rng_b)] += 1.0 / m;
  for (std::uint64_t idx = 0; idx < 8; ++idx)
    EXPECT_NEAR(bulk[idx], single[idx], 0.015) << "index " << idx;
}

TEST(StateVector, SampleCountZero) {
  StateVector sv(2);
  RngStream rng(1);
  EXPECT_TRUE(sv.sample_shots(0, rng).empty());
}

TEST(ExtractBits, PacksSelectedQubits) {
  // index bits: q0=1, q1=0, q2=1, q3=1 → 0b1101
  const std::uint64_t idx = 0b1101;
  EXPECT_EQ(extract_bits(idx, std::array{0u, 2u}), 0b11u);
  EXPECT_EQ(extract_bits(idx, std::array{1u, 3u}), 0b10u);
  EXPECT_EQ(extract_bits(idx, std::array{3u, 0u, 1u}), 0b011u);
}

TEST(StateVector, RejectsBadConstruction) {
  EXPECT_THROW(StateVector(0), precondition_error);
  EXPECT_THROW(StateVector(31), precondition_error);
}

}  // namespace
}  // namespace ptsbe

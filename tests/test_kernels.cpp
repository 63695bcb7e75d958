// The kernel layer's acceptance gates: (1) gate classification is exact —
// anything not provably structured takes the general dense path; (2) every
// compiled-and-supported kernel set (scalar / AVX2 / AVX-512) produces
// **bit-for-bit identical** amplitudes to the scalar reference, across qubit
// positions that exercise low / mid / high bit strides and every gate class;
// (3) the batched prepared-run entry point equals op-by-op application on
// both amplitude backends; (4) end-to-end trajectory results are byte-stable
// across kernel selections. This is what makes SIMD dispatch a pure
// optimisation, invisible to the repo's determinism matrices.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "ptsbe/circuit/gates.hpp"
#include "ptsbe/common/aligned.hpp"
#include "ptsbe/common/error.hpp"
#include "ptsbe/common/rng.hpp"
#include "ptsbe/core/pipeline.hpp"
#include "ptsbe/densmat/density_matrix.hpp"
#include "ptsbe/kernels/kernel_set.hpp"
#include "ptsbe/noise/channels.hpp"
#include "ptsbe/statevector/statevector.hpp"

namespace ptsbe {
namespace {

using kernels::GateClass;
using kernels::PreparedGate;

/// Restores the process-wide kernel selection on scope exit, so a failing
/// assertion cannot leak an override into later tests.
struct KernelGuard {
  ~KernelGuard() { kernels::set_active("auto"); }
};

AlignedVector<cplx> random_state(unsigned n, std::uint64_t seed) {
  RngStream rng(seed);
  AlignedVector<cplx> amp(std::uint64_t{1} << n);
  for (cplx& a : amp) a = cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  return amp;
}

/// Dense random matrix with no exact zeros or ones, so classification can
/// only land on the general path.
Matrix random_dense(unsigned arity, std::uint64_t seed) {
  RngStream rng(seed);
  const std::size_t d = std::size_t{1} << arity;
  Matrix m(d, d);
  for (std::size_t r = 0; r < d; ++r)
    for (std::size_t c = 0; c < d; ++c)
      m(r, c) = cplx(rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0));
  return m;
}

/// Controlled-U with the control on the matrix LSB (basis index t<<1 | c).
Matrix controlled_on_lsb(const Matrix& u) {
  return Matrix(4, 4,
                {1, 0, 0, 0,
                 0, u(0, 0), 0, u(0, 1),
                 0, 0, 1, 0,
                 0, u(1, 0), 0, u(1, 1)});
}

/// Controlled-U with the control on the matrix MSB (basis index c<<1 | t).
Matrix controlled_on_msb(const Matrix& u) {
  return Matrix(4, 4,
                {1, 0, 0, 0,
                 0, 1, 0, 0,
                 0, 0, u(0, 0), u(0, 1),
                 0, 0, u(1, 0), u(1, 1)});
}

bool bytes_equal(std::span<const cplx> a, std::span<const cplx> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

// ---------------------------------------------------------------------------
// Layout / alignment (satellite: aligned amplitude storage)
// ---------------------------------------------------------------------------

TEST(KernelLayout, AlignedVectorIs64ByteAligned) {
  for (std::size_t count : {1u, 3u, 64u, 1000u}) {
    AlignedVector<cplx> v(count);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
  }
  StateVector sv(4);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(sv.amplitudes().data()) % 64, 0u);
}

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

TEST(KernelClassify, StructuredGatesLandOnTheirFastPath) {
  const std::vector<unsigned> q1{3};
  const std::vector<unsigned> q2{1, 4};
  EXPECT_EQ(kernels::prepare_gate(gates::I(), q1).cls, GateClass::kIdentity);
  EXPECT_EQ(kernels::prepare_gate(gates::Z(), q1).cls, GateClass::kDiag1);
  EXPECT_EQ(kernels::prepare_gate(gates::S(), q1).cls, GateClass::kDiag1);
  EXPECT_EQ(kernels::prepare_gate(gates::RZ(0.37), q1).cls, GateClass::kDiag1);
  EXPECT_EQ(kernels::prepare_gate(gates::X(), q1).cls, GateClass::kPerm1);
  EXPECT_EQ(kernels::prepare_gate(gates::Y(), q1).cls, GateClass::kPerm1);
  EXPECT_EQ(kernels::prepare_gate(gates::H(), q1).cls, GateClass::kGeneral1);
  EXPECT_EQ(kernels::prepare_gate(gates::CZ(), q2).cls, GateClass::kDiag2);
  EXPECT_EQ(kernels::prepare_gate(gates::SWAP(), q2).cls, GateClass::kPerm2);
  EXPECT_EQ(kernels::prepare_gate(gates::ISWAP(), q2).cls, GateClass::kPerm2);
  EXPECT_EQ(kernels::prepare_gate(random_dense(1, 7), q1).cls,
            GateClass::kGeneral1);
  EXPECT_EQ(kernels::prepare_gate(random_dense(2, 8), q2).cls,
            GateClass::kGeneral2);
}

TEST(KernelClassify, ControlledGatesRecoverControlAndTarget) {
  const std::vector<unsigned> q{2, 5};
  // gates::CX() lists the control first, i.e. on the matrix LSB.
  const PreparedGate cx = kernels::prepare_gate(gates::CX(), q);
  ASSERT_EQ(cx.cls, GateClass::kCtrl1);
  EXPECT_EQ(cx.q[0], 2u);  // control
  EXPECT_EQ(cx.q[1], 5u);  // target
  // The mirrored layout (control on the matrix MSB) must swap the roles.
  const Matrix u = random_dense(1, 11);
  const PreparedGate crev = kernels::prepare_gate(controlled_on_msb(u), q);
  ASSERT_EQ(crev.cls, GateClass::kCtrl1);
  EXPECT_EQ(crev.q[0], 5u);  // control
  EXPECT_EQ(crev.q[1], 2u);  // target
  const PreparedGate cfwd = kernels::prepare_gate(controlled_on_lsb(u), q);
  ASSERT_EQ(cfwd.cls, GateClass::kCtrl1);
  EXPECT_EQ(cfwd.q[0], 2u);
  EXPECT_EQ(cfwd.q[1], 5u);
}

// ---------------------------------------------------------------------------
// Cross-ISA bit parity
// ---------------------------------------------------------------------------

/// Apply `m` on `qubits` with every available kernel set and require byte
/// equality with the scalar reference, for every state size in `sizes`.
void expect_parity(const Matrix& m, std::vector<unsigned> qubits,
                   std::span<const unsigned> sizes, std::uint64_t seed) {
  for (unsigned n : sizes) {
    bool fits = true;
    for (unsigned q : qubits) fits = fits && q < n;
    if (!fits) continue;
    const AlignedVector<cplx> init = random_state(n, seed + n);
    AlignedVector<cplx> ref = init;
    kernels::apply_gate(kernels::scalar_kernel_set(), ref.data(), ref.size(),
                        m, qubits);
    for (const kernels::KernelSet* set : kernels::available_sets()) {
      AlignedVector<cplx> got = init;
      kernels::apply_gate(*set, got.data(), got.size(), m, qubits);
      EXPECT_TRUE(bytes_equal(ref, got))
          << "set=" << set->name << " n=" << n << " q0=" << qubits[0]
          << (qubits.size() > 1 ? " q1=" + std::to_string(qubits[1]) : "");
    }
  }
}

TEST(KernelParity, OneQubitGatesAcrossStridesAndSets) {
  // n = 3 is the smallest state the AVX-512 qubit-1 path takes (one block
  // of eight amplitudes).
  const unsigned sizes[] = {1, 2, 3, 6, 12};
  const Matrix shapes[] = {gates::S(), gates::X(), gates::H(),
                           random_dense(1, 3)};
  std::uint64_t seed = 100;
  for (const Matrix& m : shapes)
    for (unsigned q : {0u, 1u, 3u, 5u, 11u})  // low / mid / high strides
      expect_parity(m, {q}, sizes, seed += 17);
}

TEST(KernelParity, TwoQubitGatesAcrossStridesAndSets) {
  const unsigned sizes[] = {2, 6, 12};
  const Matrix u = random_dense(1, 5);
  const Matrix shapes[] = {gates::CZ(),          gates::SWAP(),
                           gates::ISWAP(),       gates::CX(),
                           controlled_on_lsb(u), controlled_on_msb(u),
                           random_dense(2, 6)};
  const std::vector<std::vector<unsigned>> positions = {
      {0, 1}, {1, 0},  {0, 5},  {5, 0}, {3, 4},
      {0, 11}, {11, 0}, {10, 11}, {5, 11}};
  std::uint64_t seed = 5000;
  for (const Matrix& m : shapes)
    for (const std::vector<unsigned>& q : positions)
      expect_parity(m, q, sizes, seed += 29);
}

/// Two-qubit kernels whose low qubit's stride is below the register width
/// gather their groups with lane shuffles (kernels_impl.hpp `quad_sweep`):
/// the dense 4x4, controlled and permutation classes on every such pair
/// shape — both bits in one register, in one four-register block, or the
/// high bit a row apart — from states too small to gather (scalar
/// fallback) to states of two slices, byte for byte against the scalar set.
TEST(KernelParity, TwoQubitGatesOnLowQubitsMatchScalarOnEverySet) {
  const unsigned sizes[] = {2, 3, 4, 5, 8, 15};
  const Matrix u = random_dense(1, 9);
  const Matrix phased_perm(4, 4,
                           {0, 0, cplx(0, 1), 0,
                            cplx(0.6, 0.8), 0, 0, 0,
                            0, 0, 0, -1,
                            0, cplx(-0.8, 0.6), 0, 0});
  const std::vector<std::pair<Matrix, GateClass>> shapes = {
      {random_dense(2, 7), GateClass::kGeneral2},
      {gates::CX(), GateClass::kCtrl1},
      {controlled_on_lsb(u), GateClass::kCtrl1},
      {controlled_on_msb(u), GateClass::kCtrl1},
      {gates::SWAP(), GateClass::kPerm2},
      {phased_perm, GateClass::kPerm2}};
  const std::vector<std::vector<unsigned>> positions = {
      {0, 1}, {1, 0}, {0, 2}, {2, 0}, {2, 1}, {1, 2},
      {1, 3}, {3, 1}, {0, 3}, {0, 7}, {7, 1}};
  std::uint64_t seed = 9000;
  for (const auto& [m, cls] : shapes)
    for (const std::vector<unsigned>& q : positions) {
      ASSERT_EQ(kernels::prepare_gate(m, q).cls, cls);
      expect_parity(m, q, sizes, seed += 31);
    }
}

/// The range entry: a sweep's slices, applied one by one in a shuffled
/// order, give the bytes of the whole sweep on every set and class, at
/// low, mid and high strides, where a row holds a few registers, many
/// slices or a slice's part of one row.
TEST(KernelRanges, SlicesInAnyOrderEqualTheWholeSweep) {
  const unsigned n = 17;
  const Matrix u = random_dense(1, 41);
  const std::vector<std::pair<Matrix, std::vector<unsigned>>> gates_on = {
      {gates::S(), {0}},            {gates::X(), {4}},
      {random_dense(1, 42), {1}},   {random_dense(1, 43), {12}},
      {random_dense(1, 44), {16}},  {gates::CZ(), {1, 15}},
      {gates::CZ(), {0, 1}},        {gates::SWAP(), {3, 16}},
      {gates::CX(), {0, 16}},       {controlled_on_msb(u), {14, 2}},
      {random_dense(2, 45), {13, 16}}, {random_dense(2, 46), {0, 1}},
      {random_dense(2, 49), {2, 1}},   {gates::CX(), {1, 0}},
      {controlled_on_lsb(u), {0, 2}},  {gates::SWAP(), {1, 3}},
      {gates::ISWAP(), {0, 9}}};
  RngStream rng(47);
  for (const auto& [m, qubits] : gates_on) {
    const PreparedGate g = kernels::prepare_gate(m, qubits);
    const AlignedVector<cplx> init = random_state(n, 48 + qubits[0]);
    const std::uint64_t groups = init.size() >> g.arity;
    const std::uint64_t slice =
        (std::uint64_t{1} << kernels::kSliceBits) >> g.arity;
    std::vector<std::uint64_t> order(groups / slice);
    for (std::uint64_t s = 0; s < order.size(); ++s) order[s] = s;
    for (std::uint64_t s = order.size(); s > 1; --s)
      std::swap(order[s - 1], order[rng.uniform_index(s)]);
    for (const kernels::KernelSet* set : kernels::available_sets()) {
      AlignedVector<cplx> whole = init;
      kernels::apply_prepared_range(*set, whole.data(), whole.size(), g, 0,
                                    groups);
      AlignedVector<cplx> sliced = init;
      for (const std::uint64_t s : order)
        kernels::apply_prepared_range(*set, sliced.data(), sliced.size(), g,
                                      s * slice, (s + 1) * slice);
      EXPECT_TRUE(bytes_equal(whole, sliced))
          << "set=" << set->name << " q0=" << qubits[0];
    }
  }
}

/// The general-Kraus sweep against its three sweeps written out: the
/// prescale as (re·s, im·s), the scalar set's gate kernel, and each
/// 2^14-amplitude block's Σ re·re + im·im in index order from 0.0. Every
/// set — the scalar one included, so every set also equals the scalar
/// set — must give the same amplitude and sum bytes, its units run in a
/// shuffled order. One-qubit diagonals on low, tile-edge, block-edge and
/// top qubits; two-qubit diagonals; the identity; prescale 1 and not 1;
/// states narrower than an AVX-512 register, of one block, and of two,
/// four, eight and sixteen blocks.
TEST(KernelKraus, SweepEqualsPrescaleKernelAndBlockSumsOnEverySet) {
  const Matrix damped(2, 2, {1.0, 0.0, 0.0, std::sqrt(0.8)});
  const Matrix phased(2, 2, {cplx(0.6, 0.3), 0.0, 0.0, cplx(-0.2, 0.9)});
  const Matrix diag2(4, 4, {cplx(0.9, 0.1), 0, 0, 0,
                            0, cplx(0.3, -0.7), 0, 0,
                            0, 0, cplx(-0.5, 0.2), 0,
                            0, 0, 0, cplx(0.1, 0.8)});
  RngStream rng(63);
  for (const unsigned n : {1u, 2u, 10u, 14u, 15u, 16u, 17u, 18u}) {
    const unsigned top = n - 1;
    const std::vector<std::pair<Matrix, std::vector<unsigned>>> sites = {
        {damped, {0}},        {damped, {1}},    {phased, {2}},
        {damped, {13}},       {phased, {14}},   {damped, {top}},
        {diag2, {0, top}},    {diag2, {13, 1}}, {diag2, {top, n / 2}},
        {diag2, {16, 14}},    {gates::I(), {4}}};
    const AlignedVector<cplx> init = random_state(n, 64 + n);
    const std::uint64_t dim = init.size();
    const std::uint64_t block =
        std::min(dim, std::uint64_t{1} << kernels::kSliceBits);
    for (const auto& [k, qubits] : sites) {
      if (std::max(qubits.front(), qubits.back()) >= n ||
          (qubits.size() == 2 && qubits[0] == qubits[1]))
        continue;
      const PreparedGate g = kernels::prepare_gate(k, qubits);
      ASSERT_TRUE(kernels::is_diagonal(g.cls));
      for (const double prescale : {1.0, 1.0 / std::sqrt(0.37)}) {
        AlignedVector<cplx> ref = init;
        for (cplx& a : ref)
          a = cplx(a.real() * prescale, a.imag() * prescale);
        kernels::apply_prepared(kernels::scalar_kernel_set(), ref.data(), dim,
                                g);
        std::vector<double> ref_sums(dim / block);
        for (std::uint64_t b = 0; b < ref_sums.size(); ++b) {
          double s = 0.0;
          for (std::uint64_t i = b * block; i < (b + 1) * block; ++i)
            s += ref[i].real() * ref[i].real() + ref[i].imag() * ref[i].imag();
          ref_sums[b] = s;
        }
        std::vector<std::uint64_t> order(kernels::kraus_units(dim));
        for (std::uint64_t u = 0; u < order.size(); ++u) order[u] = u;
        for (std::uint64_t u = order.size(); u > 1; --u)
          std::swap(order[u - 1], order[rng.uniform_index(u)]);
        for (const kernels::KernelSet* set : kernels::available_sets()) {
          AlignedVector<cplx> got = init;
          std::vector<double> sums(ref_sums.size(), -1.0);
          for (const std::uint64_t u : order)
            set->kraus_sweep(got.data(), dim, g, prescale, sums.data(), u,
                             u + 1);
          EXPECT_TRUE(bytes_equal(ref, got) &&
                      std::memcmp(ref_sums.data(), sums.data(),
                                  sums.size() * sizeof(double)) == 0)
              << "set=" << set->name << " n=" << n << " q0=" << qubits[0]
              << (qubits.size() > 1 ? " q1=" + std::to_string(qubits[1]) : "")
              << " prescale=" << prescale;
        }
      }
    }
  }
}

/// The classified fast paths (diag/perm/ctrl) must agree with the dense
/// general kernel in value. Exact-zero matrix entries may flip the sign of
/// a zero (0*x summed vs skipped), which `==` on doubles tolerates —
/// classification happens above ISA dispatch, so this cannot break
/// cross-kernel byte parity.
TEST(KernelParity, ClassifiedPathsMatchDenseValues) {
  const unsigned n = 8;
  const Matrix shapes[] = {gates::S(),  gates::X(),     gates::CZ(),
                           gates::CX(), gates::ISWAP(), controlled_on_msb(
                                                            random_dense(1, 9))};
  for (const Matrix& m : shapes) {
    const unsigned arity = m.rows() == 2 ? 1 : 2;
    const std::vector<unsigned> qubits =
        arity == 1 ? std::vector<unsigned>{3} : std::vector<unsigned>{3, 6};
    const AlignedVector<cplx> init = random_state(n, 77);
    AlignedVector<cplx> fast = init;
    kernels::apply_gate(kernels::scalar_kernel_set(), fast.data(), fast.size(),
                        m, qubits);
    PreparedGate dense;
    dense.cls = arity == 1 ? GateClass::kGeneral1 : GateClass::kGeneral2;
    dense.arity = static_cast<std::uint8_t>(arity);
    dense.q = {qubits[0], arity == 2 ? qubits[1] : 0};
    for (std::size_t r = 0; r < m.rows(); ++r)
      for (std::size_t c = 0; c < m.cols(); ++c)
        dense.m[r * m.cols() + c] = m(r, c);
    AlignedVector<cplx> ref = init;
    kernels::apply_prepared(kernels::scalar_kernel_set(), ref.data(),
                            ref.size(), dense);
    for (std::uint64_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(fast[i].real(), ref[i].real()) << i;
      EXPECT_EQ(fast[i].imag(), ref[i].imag()) << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Batched prepared runs
// ---------------------------------------------------------------------------

/// A mixed-class gate program on `n` qubits (diag, perm, ctrl, general,
/// reversed qubit orders) as (matrix, qubits) pairs.
std::vector<std::pair<Matrix, std::vector<unsigned>>> mixed_program(unsigned n) {
  std::vector<std::pair<Matrix, std::vector<unsigned>>> ops;
  ops.emplace_back(gates::H(), std::vector<unsigned>{0});
  for (unsigned q = 0; q + 1 < n; ++q)
    ops.emplace_back(gates::CX(), std::vector<unsigned>{q, q + 1});
  ops.emplace_back(gates::S(), std::vector<unsigned>{n - 1});
  ops.emplace_back(gates::CZ(), std::vector<unsigned>{0, n - 1});
  ops.emplace_back(gates::SWAP(), std::vector<unsigned>{1, n - 2});
  ops.emplace_back(random_dense(1, 21), std::vector<unsigned>{n / 2});
  ops.emplace_back(random_dense(2, 22), std::vector<unsigned>{n - 1, 2});
  ops.emplace_back(gates::X(), std::vector<unsigned>{1});
  return ops;
}

TEST(KernelBatched, StateVectorPreparedRunEqualsOpByOp) {
  const unsigned n = 9;
  const auto ops = mixed_program(n);
  StateVector one_by_one(n);
  StateVector batched(n);
  std::vector<PreparedGate> run;
  for (const auto& [m, qubits] : ops) {
    one_by_one.apply_gate(m, qubits);
    run.push_back(kernels::prepare_gate(m, qubits));
  }
  batched.apply_prepared_gates(run);
  EXPECT_TRUE(bytes_equal(one_by_one.amplitudes(), batched.amplitudes()));

  // At 18 qubits the span crosses four 2^16-amplitude tiles, so its groups
  // of low-qubit gates run tile by tile at every thread count. A dense
  // gate on qubit 1 and a gate straddling the tile width join the mix;
  // every set must still match its own op-by-op sweeps.
  const unsigned wide = 18;
  auto wide_ops = mixed_program(wide);
  wide_ops.emplace_back(random_dense(1, 23), std::vector<unsigned>{1});
  wide_ops.emplace_back(random_dense(2, 24), std::vector<unsigned>{15, 16});
  std::vector<PreparedGate> wide_run;
  for (const auto& [m, qubits] : wide_ops)
    wide_run.push_back(kernels::prepare_gate(m, qubits));
  const AlignedVector<cplx> init = random_state(wide, 31);
  for (const kernels::KernelSet* set : kernels::available_sets()) {
    AlignedVector<cplx> op_by_op = init;
    for (const auto& [m, qubits] : wide_ops)
      kernels::apply_gate(*set, op_by_op.data(), op_by_op.size(), m, qubits);
    AlignedVector<cplx> spanned = init;
    kernels::apply_prepared_span(*set, spanned.data(), spanned.size(),
                                 wide_run);
    EXPECT_TRUE(bytes_equal(op_by_op, spanned)) << "set=" << set->name;
  }
}

TEST(KernelBatched, DensityMatrixPreparedRunEqualsOpByOp) {
  const unsigned n = 4;
  const auto ops = mixed_program(n);
  DensityMatrix one_by_one(n);
  DensityMatrix batched(n);
  std::vector<PreparedGate> run;
  for (const auto& [m, qubits] : ops) {
    one_by_one.apply_gate(m, qubits);
    run.push_back(kernels::prepare_gate(m, qubits));
  }
  batched.apply_prepared_gates(run);
  const std::uint64_t dim = std::uint64_t{1} << n;
  for (std::uint64_t r = 0; r < dim; ++r)
    for (std::uint64_t c = 0; c < dim; ++c) {
      EXPECT_EQ(one_by_one.element(r, c).real(), batched.element(r, c).real());
      EXPECT_EQ(one_by_one.element(r, c).imag(), batched.element(r, c).imag());
    }
}

TEST(KernelBatched, ExecPlanRunsCoverEveryGateStepOnce) {
  Circuit c(5);
  c.h(0);
  for (unsigned q = 0; q + 1 < 5; ++q) c.cx(q, q + 1);
  c.measure_all();
  NoiseModel noise;
  noise.add_all_gate_noise(channels::depolarizing(0.01));
  for (const bool fuse : {false, true}) {
    const ExecPlan plan = build_exec_plan(noise.apply(c), fuse);
    // Every 1-/2-qubit gate step must lie in exactly one prepared run, each
    // run must start where run_at_step says it does, and a run's gates are
    // its gate steps' prepared gates unless it spans sites (a window,
    // whose gates fuse them).
    std::vector<int> covered(plan.steps.size(), 0);
    for (const ExecPlan::PreparedRun& run : plan.prepared_runs) {
      EXPECT_EQ(plan.run_starting_at(run.first_step),
                plan.run_at_step[run.first_step]);
      std::size_t gate_steps = 0;
      for (std::size_t s = run.first_step; s < run.end_step; ++s) {
        ++covered[s];
        if (!plan.steps[s].is_gate) continue;
        ASSERT_LE(plan.steps[s].qubits.size(), 2u);
        if (run.sites.empty()) {
          EXPECT_EQ(run.gates[gate_steps].cls, plan.steps[s].prepared.cls);
        }
        ++gate_steps;
      }
      if (run.sites.empty()) {
        EXPECT_EQ(run.gates.size(), gate_steps);
      } else {
        EXPECT_TRUE(fuse) << "only a fused plan's windows span sites";
      }
    }
    std::size_t small_gate_steps = 0;
    for (std::size_t s = 0; s < plan.steps.size(); ++s) {
      if (!plan.steps[s].is_gate || plan.steps[s].qubits.size() > 2) continue;
      EXPECT_EQ(covered[s], 1) << "step " << s;
      ++small_gate_steps;
    }
    EXPECT_GT(small_gate_steps, 0u);
  }
}

// ---------------------------------------------------------------------------
// Registry / dispatch
// ---------------------------------------------------------------------------

TEST(KernelRegistry, ScalarFirstAndAlwaysAvailable) {
  ASSERT_FALSE(kernels::available_sets().empty());
  EXPECT_STREQ(kernels::available_sets().front()->name, "scalar");
  EXPECT_FALSE(kernels::describe_dispatch().empty());
}

TEST(KernelRegistry, UnknownOrUnsupportedNameThrows) {
  KernelGuard guard;
  EXPECT_THROW(kernels::set_active("bogus"), precondition_error);
  // A rejected override must leave the active set usable.
  kernels::set_active("scalar");
  EXPECT_STREQ(kernels::active().name, "scalar");
  kernels::set_active("auto");
  EXPECT_STREQ(kernels::active().name, kernels::best_available_set().name);
}

// ---------------------------------------------------------------------------
// End-to-end determinism across kernel selections
// ---------------------------------------------------------------------------

TEST(KernelDeterminism, TrajectoryResultsIdenticalAcrossKernelSelections) {
  KernelGuard guard;
  Circuit c(6);
  c.h(0);
  for (unsigned q = 0; q + 1 < 6; ++q) c.cx(q, q + 1);
  c.measure_all();
  NoiseModel noise;
  noise.add_all_gate_noise(channels::depolarizing(0.02));
  const NoisyCircuit noisy = noise.apply(c);
  RngStream rng(41);
  pts::Options opt;
  opt.nsamples = 150;
  opt.nshots = 30;
  const auto specs = pts::sample_probabilistic(noisy, opt, rng);
  ASSERT_FALSE(specs.empty());

  auto run_with = [&](const char* kernel, be::Schedule schedule) {
    kernels::set_active(kernel);
    be::Options options;
    options.backend = "statevector";
    options.schedule = schedule;
    options.config.fuse_gates = true;
    return be::execute(noisy, specs, options);
  };
  for (be::Schedule schedule :
       {be::Schedule::kIndependent, be::Schedule::kSharedPrefix}) {
    const be::Result ref = run_with("scalar", schedule);
    for (const kernels::KernelSet* set : kernels::available_sets()) {
      const be::Result got = run_with(set->name, schedule);
      ASSERT_EQ(ref.batches.size(), got.batches.size());
      for (std::size_t i = 0; i < ref.batches.size(); ++i) {
        EXPECT_EQ(ref.batches[i].records, got.batches[i].records)
            << "kernel=" << set->name << " spec " << i;
        EXPECT_EQ(ref.batches[i].realized_probability,
                  got.batches[i].realized_probability)
            << "kernel=" << set->name << " spec " << i;
      }
    }
  }
}

}  // namespace
}  // namespace ptsbe

#include "ptsbe/densmat/density_matrix.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "ptsbe/common/bits.hpp"
#include "ptsbe/common/error.hpp"
#include "ptsbe/common/inverse_cdf.hpp"

namespace ptsbe {

DensityMatrix::DensityMatrix(unsigned num_qubits)
    : n_(num_qubits), dim_(pow2(num_qubits)) {
  PTSBE_REQUIRE(num_qubits >= 1 && num_qubits <= 13,
                "density matrix supports 1..13 qubits (memory gate)");
  rho_.assign(dim_ * dim_, cplx{0.0, 0.0});
  rho_[0] = cplx{1.0, 0.0};
}

void DensityMatrix::reset() {
  std::fill(rho_.begin(), rho_.end(), cplx{0.0, 0.0});
  rho_[0] = cplx{1.0, 0.0};
}

cplx DensityMatrix::element(std::uint64_t r, std::uint64_t c) const {
  PTSBE_REQUIRE(r < dim_ && c < dim_, "element index out of range");
  return rho_[r * dim_ + c];
}

void DensityMatrix::apply_op_left(const Matrix& m,
                                  std::span<const unsigned> qubits) {
  if (qubits.size() <= 2) {
    // Flat index of ρ is (r << n) | c: the row bits start at bit n, so a
    // left-multiply is a statevector kernel apply on shifted qubits over
    // the 4^n flat array.
    const kernels::PreparedGate g = kernels::prepare_gate(m, qubits);
    kernels::apply_prepared(kernels::active(), rho_.data(), rho_.size(),
                            kernels::shifted(g, n_));
    return;
  }
  apply_op_left_k(m, qubits);
}

void DensityMatrix::apply_op_right_dagger(const Matrix& m,
                                          std::span<const unsigned> qubits) {
  if (qubits.size() <= 2) {
    // (ρ M†)(r, c) = Σ_cc ρ(r, cc) · conj(M(c, cc)): a kernel apply of
    // conj(M) on the column bits (the low n bits of the flat index).
    const kernels::PreparedGate g = kernels::prepare_gate(m, qubits);
    kernels::apply_prepared(kernels::active(), rho_.data(), rho_.size(),
                            kernels::conjugated(g));
    return;
  }
  apply_op_right_dagger_k(m, qubits);
}

void DensityMatrix::apply_prepared_gates(
    std::span<const kernels::PreparedGate> gates) {
  const kernels::KernelSet& ks = kernels::active();
  for (const kernels::PreparedGate& g : gates) {
    kernels::apply_prepared(ks, rho_.data(), rho_.size(),
                            kernels::shifted(g, n_));
    kernels::apply_prepared(ks, rho_.data(), rho_.size(),
                            kernels::conjugated(g));
  }
}

void DensityMatrix::apply_op_left_k(const Matrix& m,
                                    std::span<const unsigned> qubits) {
  const unsigned k = static_cast<unsigned>(qubits.size());
  const std::size_t block = std::size_t{1} << k;
  std::vector<unsigned> sorted(qubits.begin(), qubits.end());
  std::sort(sorted.begin(), sorted.end());
  const std::uint64_t groups = dim_ >> k;
  std::vector<cplx> in(block), out(block);
  std::vector<std::uint64_t> rows(block);
  for (std::uint64_t c = 0; c < dim_; ++c) {
    for (std::uint64_t g = 0; g < groups; ++g) {
      std::uint64_t base = g;
      for (unsigned b = 0; b < k; ++b) base = insert_zero_bit(base, sorted[b]);
      for (std::size_t local = 0; local < block; ++local) {
        std::uint64_t full = base;
        for (unsigned b = 0; b < k; ++b)
          if ((local >> b) & 1u) full |= 1ULL << qubits[b];
        rows[local] = full;
        in[local] = rho_[full * dim_ + c];
      }
      for (std::size_t r = 0; r < block; ++r) {
        cplx acc{0.0, 0.0};
        for (std::size_t cc = 0; cc < block; ++cc) acc += m(r, cc) * in[cc];
        out[r] = acc;
      }
      for (std::size_t local = 0; local < block; ++local)
        rho_[rows[local] * dim_ + c] = out[local];
    }
  }
}

void DensityMatrix::apply_op_right_dagger_k(const Matrix& m,
                                            std::span<const unsigned> qubits) {
  const unsigned k = static_cast<unsigned>(qubits.size());
  const std::size_t block = std::size_t{1} << k;
  std::vector<unsigned> sorted(qubits.begin(), qubits.end());
  std::sort(sorted.begin(), sorted.end());
  const std::uint64_t groups = dim_ >> k;
  std::vector<cplx> in(block), out(block);
  std::vector<std::uint64_t> cols(block);
  for (std::uint64_t r = 0; r < dim_; ++r) {
    cplx* const row = rho_.data() + r * dim_;
    for (std::uint64_t g = 0; g < groups; ++g) {
      std::uint64_t base = g;
      for (unsigned b = 0; b < k; ++b) base = insert_zero_bit(base, sorted[b]);
      for (std::size_t local = 0; local < block; ++local) {
        std::uint64_t full = base;
        for (unsigned b = 0; b < k; ++b)
          if ((local >> b) & 1u) full |= 1ULL << qubits[b];
        cols[local] = full;
        in[local] = row[full];
      }
      // (ρ M†)(r, c) = Σ_cc ρ(r, cc) · conj(M(c, cc))
      for (std::size_t c = 0; c < block; ++c) {
        cplx acc{0.0, 0.0};
        for (std::size_t cc = 0; cc < block; ++cc)
          acc += in[cc] * std::conj(m(c, cc));
        out[c] = acc;
      }
      for (std::size_t local = 0; local < block; ++local)
        row[cols[local]] = out[local];
    }
  }
}

void DensityMatrix::apply_unitary(const Matrix& u,
                                  std::span<const unsigned> qubits) {
  const std::size_t block = std::size_t{1} << qubits.size();
  PTSBE_REQUIRE(u.rows() == block && u.cols() == block,
                "unitary dimension mismatch");
  apply_op_left(u, qubits);
  apply_op_right_dagger(u, qubits);
}

double DensityMatrix::branch_probability(const Matrix& k,
                                         std::span<const unsigned> qubits) const {
  // tr(Aρ) with A = (K†K on the site qubits) ⊗ I = Σ_g Σ_{r,c} A(r,c) ·
  // ρ(idx_c, idx_r): touches only the aligned blocks of ρ, no copy.
  const unsigned arity = static_cast<unsigned>(qubits.size());
  const std::size_t block = std::size_t{1} << arity;
  PTSBE_REQUIRE(k.rows() == block && k.cols() == block,
                "Kraus matrix dimension mismatch");
  const Matrix a = k.dagger() * k;
  std::vector<unsigned> sorted(qubits.begin(), qubits.end());
  std::sort(sorted.begin(), sorted.end());
  const std::uint64_t groups = dim_ >> arity;
  std::vector<std::uint64_t> idx(block);
  cplx total{0.0, 0.0};
  for (std::uint64_t g = 0; g < groups; ++g) {
    std::uint64_t base = g;
    for (unsigned b = 0; b < arity; ++b) base = insert_zero_bit(base, sorted[b]);
    for (std::size_t local = 0; local < block; ++local) {
      std::uint64_t full = base;
      for (unsigned b = 0; b < arity; ++b)
        if ((local >> b) & 1u) full |= 1ULL << qubits[b];
      idx[local] = full;
    }
    for (std::size_t r = 0; r < block; ++r)
      for (std::size_t c = 0; c < block; ++c)
        total += a(r, c) * rho_[idx[c] * dim_ + idx[r]];
  }
  return total.real();
}

double DensityMatrix::apply_kraus_branch(const Matrix& k,
                                         std::span<const unsigned> qubits) {
  apply_op_left(k, qubits);
  apply_op_right_dagger(k, qubits);
  const double p = trace_real();
  PTSBE_REQUIRE(std::isfinite(p), "Kraus branch probability is not finite");
  if (p > 1e-300) {
    // Elementwise, so the slices the calling thread's team splits cannot
    // change a bit; trace_real stays serial, since its bits are p.
    kernels::scale(rho_.data(), rho_.size(), 1.0 / p);
  }
  return p;
}

void DensityMatrix::apply_channel(const KrausChannel& channel,
                                  std::span<const unsigned> qubits) {
  PTSBE_REQUIRE(qubits.size() == channel.arity(),
                "channel arity / qubit count mismatch");
  // Accumulate Σ K ρ K† across branches from a saved copy of ρ. Both
  // buffers stay in the aligned vector type so the kernel-backed applies
  // keep operating on rho_ after the final move-assign.
  const AlignedVector<cplx> saved = rho_;
  AlignedVector<cplx> acc(rho_.size(), cplx{0.0, 0.0});
  for (std::size_t i = 0; i < channel.num_branches(); ++i) {
    rho_ = saved;
    apply_op_left(channel.kraus(i), qubits);
    apply_op_right_dagger(channel.kraus(i), qubits);
    for (std::size_t j = 0; j < acc.size(); ++j) acc[j] += rho_[j];
  }
  rho_ = std::move(acc);
}

void DensityMatrix::apply_circuit(const Circuit& circuit) {
  PTSBE_REQUIRE(circuit.num_qubits() <= n_, "circuit wider than the register");
  for (const Operation& op : circuit.ops()) {
    if (op.kind != OpKind::kGate) continue;
    apply_unitary(op.matrix, op.qubits);
  }
}

void DensityMatrix::apply_noisy_circuit(const NoisyCircuit& noisy) {
  PTSBE_REQUIRE(noisy.num_qubits() <= n_, "program wider than the register");
  const auto apply_sites = [&](const std::vector<std::size_t>& site_ids) {
    for (std::size_t id : site_ids) {
      const NoiseSite& s = noisy.sites()[id];
      apply_channel(*s.channel, s.qubits);
    }
  };
  apply_sites(noisy.sites_after(NoiseSite::kBeforeCircuit));
  const auto& ops = noisy.circuit().ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == OpKind::kGate) apply_unitary(ops[i].matrix, ops[i].qubits);
    apply_sites(noisy.sites_after(i));
  }
}

double DensityMatrix::trace_real() const {
  double t = 0.0;
  for (std::uint64_t i = 0; i < dim_; ++i) t += rho_[i * dim_ + i].real();
  return t;
}

double DensityMatrix::purity() const {
  // tr(ρ²) = Σ_{r,c} ρ(r,c)·ρ(c,r) = Σ |ρ(r,c)|² for Hermitian ρ.
  double s = 0.0;
  for (const cplx& v : rho_) s += std::norm(v);
  return s;
}

std::vector<double> DensityMatrix::probabilities() const {
  std::vector<double> p(dim_);
  for (std::uint64_t i = 0; i < dim_; ++i) p[i] = rho_[i * dim_ + i].real();
  return p;
}

double DensityMatrix::fidelity_with_pure(std::span<const cplx> psi) const {
  PTSBE_REQUIRE(psi.size() == dim_, "pure state dimension mismatch");
  cplx acc{0.0, 0.0};
  for (std::uint64_t r = 0; r < dim_; ++r) {
    cplx row{0.0, 0.0};
    for (std::uint64_t c = 0; c < dim_; ++c) row += rho_[r * dim_ + c] * psi[c];
    acc += std::conj(psi[r]) * row;
  }
  return acc.real();
}

double DensityMatrix::expectation_pauli(const std::string& pauli,
                                        std::span<const unsigned> qubits) const {
  PTSBE_REQUIRE(pauli.size() == qubits.size(),
                "pauli string length must match qubit count");
  DensityMatrix tmp = *this;
  for (std::size_t i = 0; i < pauli.size(); ++i) {
    const std::array<unsigned, 1> q{qubits[i]};
    switch (pauli[i]) {
      case 'I': break;
      case 'X': tmp.apply_op_left(gates::X(), q); break;
      case 'Y': tmp.apply_op_left(gates::Y(), q); break;
      case 'Z': tmp.apply_op_left(gates::Z(), q); break;
      default: PTSBE_REQUIRE(false, "pauli character must be one of IXYZ");
    }
  }
  // tr(P ρ) accumulated as the trace of the left-multiplied copy.
  double t = 0.0;
  for (std::uint64_t i = 0; i < dim_; ++i) t += tmp.rho_[i * dim_ + i].real();
  return t;
}

std::vector<std::uint64_t> DensityMatrix::sample_shots(std::size_t count,
                                                       RngStream& rng) const {
  std::vector<std::uint64_t> shots(count);
  if (count == 0) return shots;
  kernels::draw_exponentials(rng, shots);
  records_from_exponentials(shots, rng.exponential(), {});
  return shots;
}

void DensityMatrix::records_from_exponentials(
    std::span<std::uint64_t> words, double last,
    std::span<const unsigned> measured) const {
  const cplx* const rho = rho_.data();
  const std::uint64_t dim = dim_;
  exponentials_to_records(
      words, last, dim,
      [rho, dim](std::uint64_t i) {
        return std::max(0.0, rho[i * dim + i].real());
      },
      measured);
}

}  // namespace ptsbe

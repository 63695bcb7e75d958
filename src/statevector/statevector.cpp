#include "ptsbe/statevector/statevector.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "ptsbe/common/bits.hpp"
#include "ptsbe/common/error.hpp"
#include "ptsbe/common/inverse_cdf.hpp"
#include "ptsbe/common/parallel.hpp"

namespace ptsbe {

namespace {
// Items per reduction block, and amplitudes per range of a k-qubit gate:
// the kernels' slices and general-Kraus blocks.
constexpr std::uint64_t kBlockItems = std::uint64_t{1} << kernels::kSliceBits;

// Sum of `block_sum(begin, end)` over fixed blocks of kBlockItems items:
// each block is summed in index order, blocks are the ranges the calling
// thread's team splits, and the block sums are added serially in block
// order. The bits depend on `items` only, never on the team; a single
// block is the plain serial sum. Rounds of kRound blocks keep the sums on
// the stack, and a fork throws only what a block throws, so the noexcept
// callers stay safe.
template <typename BlockSum>
double fixed_block_sum(std::uint64_t items,
                       const BlockSum& block_sum) noexcept {
  constexpr std::uint64_t kRound = 256;
  const std::uint64_t blocks = (items + kBlockItems - 1) / kBlockItems;
  double total = 0.0;
  for (std::uint64_t first = 0; first < blocks; first += kRound) {
    const std::uint64_t count = std::min(kRound, blocks - first);
    std::array<double, kRound> sums;
    parallel_for(count, [&](std::uint64_t b) {
      const std::uint64_t begin = (first + b) * kBlockItems;
      sums[b] = block_sum(begin, std::min(items, begin + kBlockItems));
    });
    for (std::uint64_t b = 0; b < count; ++b) total += sums[b];
  }
  return total;
}
}  // namespace

StateVector::StateVector(unsigned num_qubits) : n_(num_qubits) {
  PTSBE_REQUIRE(num_qubits >= 1 && num_qubits <= 30,
                "statevector supports 1..30 qubits (memory gate)");
  amp_.assign(pow2(n_), cplx{0.0, 0.0});
  amp_[0] = cplx{1.0, 0.0};
}

void StateVector::reset() {
  std::fill(amp_.begin(), amp_.end(), cplx{0.0, 0.0});
  amp_[0] = cplx{1.0, 0.0};
}

void StateVector::check_operator(const Matrix& matrix,
                                 std::span<const unsigned> qubits) const {
  PTSBE_REQUIRE(!qubits.empty() && qubits.size() <= n_,
                "gate arity out of range");
  const std::size_t dim = std::size_t{1} << qubits.size();
  PTSBE_REQUIRE(matrix.rows() == dim && matrix.cols() == dim,
                "gate matrix dimension mismatch");
  for (unsigned q : qubits) PTSBE_REQUIRE(q < n_, "gate qubit out of range");
}

void StateVector::apply_gate(const Matrix& matrix,
                             std::span<const unsigned> qubits) {
  check_operator(matrix, qubits);
  if (qubits.size() <= 2) {
    kernels::apply_gate(kernels::active(), amp_.data(), amp_.size(), matrix,
                        qubits);
  } else {
    apply_matrix_k(matrix, qubits);
  }
}

void StateVector::apply_prepared_gates(
    std::span<const kernels::PreparedGate> gates) {
  const kernels::KernelSet& ks = kernels::active();
  kernels::apply_prepared_span(ks, amp_.data(), amp_.size(), gates);
}

void StateVector::apply_circuit(const Circuit& circuit) {
  PTSBE_REQUIRE(circuit.num_qubits() <= n_,
                "circuit wider than the statevector");
  for (const Operation& op : circuit.ops()) {
    if (op.kind != OpKind::kGate) continue;
    apply_gate(op.matrix, op.qubits);
  }
}

void StateVector::apply_matrix_k(const Matrix& m,
                                 std::span<const unsigned> qubits) {
  const unsigned k = static_cast<unsigned>(qubits.size());
  const std::size_t dim = std::size_t{1} << k;
  std::vector<unsigned> sorted(qubits.begin(), qubits.end());
  std::sort(sorted.begin(), sorted.end());
  const std::uint64_t groups = amp_.size() >> k;
  const std::uint64_t per_range = std::max<std::uint64_t>(1, kBlockItems >> k);
  cplx* const a = amp_.data();
  parallel_for((groups + per_range - 1) / per_range, [&](std::uint64_t r) {
    std::vector<cplx> in(dim), out(dim);
    std::vector<std::uint64_t> idx(dim);
    const std::uint64_t end = std::min(groups, (r + 1) * per_range);
    for (std::uint64_t g = r * per_range; g < end; ++g) {
      std::uint64_t base = g;
      for (unsigned b = 0; b < k; ++b) base = insert_zero_bit(base, sorted[b]);
      for (std::size_t local = 0; local < dim; ++local) {
        std::uint64_t full = base;
        for (unsigned b = 0; b < k; ++b)
          if ((local >> b) & 1u) full |= 1ULL << qubits[b];
        idx[local] = full;
        in[local] = a[full];
      }
      for (std::size_t row = 0; row < dim; ++row) {
        cplx acc{0.0, 0.0};
        for (std::size_t c = 0; c < dim; ++c) acc += m(row, c) * in[c];
        out[row] = acc;
      }
      for (std::size_t local = 0; local < dim; ++local)
        a[idx[local]] = out[local];
    }
  });
}

double StateVector::branch_probability(const Matrix& k,
                                       std::span<const unsigned> qubits) const {
  const unsigned arity = static_cast<unsigned>(qubits.size());
  const std::size_t dim = std::size_t{1} << arity;
  PTSBE_REQUIRE(k.rows() == dim && k.cols() == dim,
                "Kraus matrix dimension mismatch");
  std::vector<unsigned> sorted(qubits.begin(), qubits.end());
  std::sort(sorted.begin(), sorted.end());
  const cplx* const a = amp_.data();
  return fixed_block_sum(amp_.size() >> arity, [&](std::uint64_t first,
                                                   std::uint64_t last) {
    double total = 0.0;
    for (std::uint64_t g = first; g < last; ++g) {
      std::uint64_t base = g;
      for (unsigned b = 0; b < arity; ++b)
        base = insert_zero_bit(base, sorted[b]);
      cplx in[4];  // arity <= 2 for channels in this library
      for (std::size_t local = 0; local < dim; ++local) {
        std::uint64_t full = base;
        for (unsigned b = 0; b < arity; ++b)
          if ((local >> b) & 1u) full |= 1ULL << qubits[b];
        in[local] = a[full];
      }
      for (std::size_t r = 0; r < dim; ++r) {
        cplx acc{0.0, 0.0};
        for (std::size_t c = 0; c < dim; ++c) acc += k(r, c) * in[c];
        total += std::norm(acc);
      }
    }
    return total;
  });
}

std::size_t StateVector::apply_kraus_branches(
    std::span<const KrausBranch> sites, double cut, std::span<double> p) {
  PTSBE_REQUIRE(p.size() >= sites.size(),
                "apply_kraus_branches needs one probability slot per site");
  for (const KrausBranch& site : sites) check_operator(*site.k, site.qubits);
  const kernels::KernelSet& ks = kernels::active();
  cplx* const a = amp_.data();
  const std::uint64_t dim = amp_.size();
  std::vector<double> sums((dim + kBlockItems - 1) / kBlockItems);
  double scale = 1.0;  // the previous site's pending 1/√p
  std::size_t count = 0;
  while (count < sites.size()) {
    const KrausBranch& site = sites[count];
    const bool small = site.qubits.size() <= 2;
    const kernels::PreparedGate g =
        small ? kernels::prepare_gate(*site.k, site.qubits)
              : kernels::PreparedGate{};
    double total = 0.0;
    if (small && kernels::is_diagonal(g.cls)) {
      parallel_for(kernels::kraus_units(dim), [&](std::uint64_t u) {
        ks.kraus_sweep(a, dim, g, scale, sums.data(), u, u + 1);
      });
      for (const double block : sums) total += block;
    } else {
      kernels::scale(a, dim, scale);
      if (small)
        kernels::apply_prepared(ks, a, dim, g);
      else
        apply_matrix_k(*site.k, site.qubits);
      total = norm2();
    }
    p[count++] = total;
    PTSBE_REQUIRE(std::isfinite(total),
                  "Kraus branch probability is not finite");
    scale = total > 1e-300 ? 1.0 / std::sqrt(total) : 1.0;
    if (total < cut || total <= 1e-300) break;
  }
  kernels::scale(a, dim, scale);
  return count;
}

double StateVector::apply_kraus_branch(const Matrix& k,
                                       std::span<const unsigned> qubits) {
  const KrausBranch site{&k, qubits};
  double p = 0.0;
  apply_kraus_branches(std::span(&site, 1), 0.0, std::span(&p, 1));
  return p;
}

double StateVector::norm2() const noexcept {
  const cplx* const a = amp_.data();
  return fixed_block_sum(amp_.size(), [a](std::uint64_t first,
                                          std::uint64_t last) noexcept {
    double s = 0.0;
    for (std::uint64_t i = first; i < last; ++i) s += std::norm(a[i]);
    return s;
  });
}

double StateVector::expectation_pauli(const std::string& pauli,
                                      std::span<const unsigned> qubits) const {
  PTSBE_REQUIRE(pauli.size() == qubits.size(),
                "pauli string length must match qubit count");
  StateVector phi = *this;
  for (std::size_t i = 0; i < pauli.size(); ++i) {
    const unsigned q = qubits[i];
    switch (pauli[i]) {
      case 'I': break;
      case 'X': phi.apply_gate(gates::X(), std::array{q}); break;
      case 'Y': phi.apply_gate(gates::Y(), std::array{q}); break;
      case 'Z': phi.apply_gate(gates::Z(), std::array{q}); break;
      default: PTSBE_REQUIRE(false, "pauli character must be one of IXYZ");
    }
  }
  cplx acc{0.0, 0.0};
  for (std::size_t i = 0; i < amp_.size(); ++i)
    acc += std::conj(amp_[i]) * phi.amp_[i];
  return acc.real();
}

double StateVector::fidelity(const StateVector& other) const {
  PTSBE_REQUIRE(other.amp_.size() == amp_.size(), "state dimension mismatch");
  cplx acc{0.0, 0.0};
  for (std::size_t i = 0; i < amp_.size(); ++i)
    acc += std::conj(amp_[i]) * other.amp_[i];
  return std::norm(acc);
}

std::uint64_t StateVector::sample_one(RngStream& rng) const {
  const double r = rng.uniform();
  double acc = 0.0;
  for (std::uint64_t i = 0; i + 1 < amp_.size(); ++i) {
    acc += std::norm(amp_[i]);
    if (r < acc) return i;
  }
  return amp_.size() - 1;
}

std::vector<std::uint64_t> StateVector::sample_shots(std::size_t count,
                                                     RngStream& rng) const {
  // Shots come out sorted by basis index, which downstream dataset code is
  // free to shuffle; sortedness does not bias the marginal distribution
  // because the draws are exchangeable.
  std::vector<std::uint64_t> shots(count);
  if (count == 0) return shots;
  kernels::draw_exponentials(rng, shots);
  records_from_exponentials(shots, rng.exponential(), {});
  return shots;
}

void StateVector::records_from_exponentials(
    std::span<std::uint64_t> words, double last,
    std::span<const unsigned> measured) const {
  const cplx* const a = amp_.data();
  exponentials_to_records(
      words, last, amp_.size(),
      [a](std::uint64_t i) { return std::norm(a[i]); }, measured);
}

}  // namespace ptsbe

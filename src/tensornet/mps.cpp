#include "ptsbe/tensornet/mps.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "ptsbe/circuit/gates.hpp"
#include "ptsbe/common/bits.hpp"
#include "ptsbe/common/error.hpp"
#include "ptsbe/linalg/svd.hpp"

namespace ptsbe {

MpsState::MpsState(unsigned num_qubits, MpsConfig config)
    : n_(num_qubits), cfg_(config) {
  PTSBE_REQUIRE(num_qubits >= 1, "MPS needs at least one qubit");
  reset();
}

void MpsState::reset() {
  t_.assign(n_, Tensor{});
  for (Tensor& tn : t_) {
    tn.dl = tn.dr = 1;
    tn.data = {cplx{1.0, 0.0}, cplx{0.0, 0.0}};  // |0⟩
  }
  center_ = 0;
  stats_ = MpsStats{};
}

std::size_t MpsState::max_bond_dim() const noexcept {
  std::size_t m = 1;
  for (const Tensor& tn : t_) m = std::max(m, tn.dr);
  return m;
}

void MpsState::shift_center_right() {
  PTSBE_ASSERT(center_ + 1 < n_);
  Tensor& a = t_[center_];
  Tensor& b = t_[center_ + 1];
  // SVD of a viewed as (dl*2) × dr.
  Matrix m(a.dl * 2, a.dr, a.data);
  SvdResult f = svd(m);
  // Drop numerically dead directions only (no physical truncation here).
  std::size_t keep = f.s.size();
  while (keep > 1 && f.s[keep - 1] <= 1e-14 * f.s[0]) --keep;
  // a ← U (left-canonical).
  a.data.assign(a.dl * 2 * keep, cplx{0.0, 0.0});
  for (std::size_t row = 0; row < a.dl * 2; ++row)
    for (std::size_t k = 0; k < keep; ++k) a.data[row * keep + k] = f.u(row, k);
  // b ← (S·V†)·b.
  const std::size_t old_dm = b.dl;
  std::vector<cplx> nb(keep * 2 * b.dr, cplx{0.0, 0.0});
  for (std::size_t k = 0; k < keep; ++k)
    for (std::size_t mcol = 0; mcol < old_dm; ++mcol) {
      const cplx w = f.s[k] * f.vdag(k, mcol);
      if (w == cplx{0.0, 0.0}) continue;
      for (std::size_t s = 0; s < 2; ++s)
        for (std::size_t r = 0; r < b.dr; ++r)
          nb[(k * 2 + s) * b.dr + r] += w * b.data[(mcol * 2 + s) * b.dr + r];
    }
  a.dr = keep;
  b.dl = keep;
  b.data = std::move(nb);
  ++center_;
  ++stats_.svd_count;
}

void MpsState::shift_center_left() {
  PTSBE_ASSERT(center_ >= 1);
  Tensor& a = t_[center_ - 1];
  Tensor& b = t_[center_];
  // SVD of b viewed as dl × (2*dr).
  Matrix m(b.dl, 2 * b.dr, b.data);
  SvdResult f = svd(m);
  std::size_t keep = f.s.size();
  while (keep > 1 && f.s[keep - 1] <= 1e-14 * f.s[0]) --keep;
  // b ← V† (right-canonical), reshaped (keep, 2, dr).
  std::vector<cplx> nb(keep * 2 * b.dr);
  for (std::size_t k = 0; k < keep; ++k)
    for (std::size_t col = 0; col < 2 * b.dr; ++col)
      nb[k * 2 * b.dr + col] = f.vdag(k, col);
  // a ← a·(U·S).
  const std::size_t old_dm = a.dr;
  std::vector<cplx> na(a.dl * 2 * keep, cplx{0.0, 0.0});
  for (std::size_t row = 0; row < a.dl * 2; ++row)
    for (std::size_t mcol = 0; mcol < old_dm; ++mcol) {
      const cplx v = a.data[row * old_dm + mcol];
      if (v == cplx{0.0, 0.0}) continue;
      for (std::size_t k = 0; k < keep; ++k)
        na[row * keep + k] += v * f.u(mcol, k) * f.s[k];
    }
  a.dr = keep;
  a.data = std::move(na);
  b.dl = keep;
  b.data = std::move(nb);
  --center_;
  ++stats_.svd_count;
}

void MpsState::move_center_to(unsigned site) {
  PTSBE_REQUIRE(site < n_, "site out of range");
  while (center_ < site) shift_center_right();
  while (center_ > site) shift_center_left();
}

void MpsState::apply_gate1(const Matrix& g, unsigned q) {
  Tensor& tn = t_[q];
  std::vector<cplx> out(tn.data.size());
  for (std::size_t l = 0; l < tn.dl; ++l)
    for (std::size_t sp = 0; sp < 2; ++sp)
      for (std::size_t r = 0; r < tn.dr; ++r) {
        cplx acc = g(sp, 0) * tn.data[(l * 2 + 0) * tn.dr + r] +
                   g(sp, 1) * tn.data[(l * 2 + 1) * tn.dr + r];
        out[(l * 2 + sp) * tn.dr + r] = acc;
      }
  tn.data = std::move(out);
}

void MpsState::apply_adjacent(const Matrix& g, unsigned p) {
  PTSBE_REQUIRE(p + 1 < n_, "adjacent pair out of range");
  move_center_to(p);
  const Tensor& a = t_[p];
  const Tensor& b = t_[p + 1];
  const std::size_t dl = a.dl, dm = a.dr, dr = b.dr;
  PTSBE_ASSERT(b.dl == dm);

  // Theta[l, s0, s1, r] = Σ_k a[l, s0, k] b[k, s1, r], then gate applied on
  // (s1 s0), then reshaped to rows (l, s0) × cols (s1, r) for the SVD.
  Matrix theta(dl * 2, 2 * dr);
  for (std::size_t l = 0; l < dl; ++l)
    for (std::size_t s0 = 0; s0 < 2; ++s0)
      for (std::size_t s1 = 0; s1 < 2; ++s1)
        for (std::size_t r = 0; r < dr; ++r) {
          cplx acc{0.0, 0.0};
          for (std::size_t k = 0; k < dm; ++k)
            acc += a.data[(l * 2 + s0) * dm + k] * b.data[(k * 2 + s1) * dr + r];
          theta(l * 2 + s0, s1 * dr + r) = acc;
        }
  // Gate on the physical pair: index = s1*2 + s0 (site p = LSB).
  Matrix rotated(dl * 2, 2 * dr);
  for (std::size_t l = 0; l < dl; ++l)
    for (std::size_t r = 0; r < dr; ++r)
      for (std::size_t sp0 = 0; sp0 < 2; ++sp0)
        for (std::size_t sp1 = 0; sp1 < 2; ++sp1) {
          cplx acc{0.0, 0.0};
          for (std::size_t s0 = 0; s0 < 2; ++s0)
            for (std::size_t s1 = 0; s1 < 2; ++s1)
              acc += g(sp1 * 2 + sp0, s1 * 2 + s0) * theta(l * 2 + s0, s1 * dr + r);
          rotated(l * 2 + sp0, sp1 * dr + r) = acc;
        }

  SvdResult f = svd(rotated);
  std::size_t keep = truncated_rank(f.s, cfg_.truncation_error, cfg_.max_bond);
  // Also drop numerically dead directions.
  while (keep > 1 && f.s[keep - 1] <= 1e-14 * f.s[0]) --keep;
  double discarded = 0.0;
  for (std::size_t k = keep; k < f.s.size(); ++k) discarded += f.s[k] * f.s[k];
  stats_.total_discarded_weight += discarded;
  stats_.max_bond_reached = std::max(stats_.max_bond_reached, keep);
  ++stats_.svd_count;

  Tensor& na = t_[p];
  Tensor& nb = t_[p + 1];
  na.dl = dl;
  na.dr = keep;
  na.data.assign(dl * 2 * keep, cplx{0.0, 0.0});
  for (std::size_t row = 0; row < dl * 2; ++row)
    for (std::size_t k = 0; k < keep; ++k) na.data[row * keep + k] = f.u(row, k);
  nb.dl = keep;
  nb.dr = dr;
  nb.data.assign(keep * 2 * dr, cplx{0.0, 0.0});
  for (std::size_t k = 0; k < keep; ++k)
    for (std::size_t s1 = 0; s1 < 2; ++s1)
      for (std::size_t r = 0; r < dr; ++r)
        nb.data[(k * 2 + s1) * dr + r] = f.s[k] * f.vdag(k, s1 * dr + r);
  center_ = p + 1;
}

void MpsState::apply_gate(const Matrix& matrix,
                          std::span<const unsigned> qubits) {
  PTSBE_REQUIRE(qubits.size() == 1 || qubits.size() == 2,
                "MPS backend applies 1- and 2-qubit operators");
  for (unsigned q : qubits) PTSBE_REQUIRE(q < n_, "qubit out of range");
  if (qubits.size() == 1) {
    PTSBE_REQUIRE(matrix.rows() == 2 && matrix.cols() == 2,
                  "matrix dimension mismatch");
    apply_gate1(matrix, qubits[0]);
    return;
  }
  PTSBE_REQUIRE(matrix.rows() == 4 && matrix.cols() == 4,
                "matrix dimension mismatch");
  const unsigned a = qubits[0], b = qubits[1];
  PTSBE_REQUIRE(a != b, "two-qubit gate targets must differ");
  const unsigned lo = std::min(a, b), hi = std::max(a, b);

  // Bring `hi` down to lo+1 with swap chains, apply, and restore.
  for (unsigned p = hi - 1; p > lo; --p) apply_adjacent(gates::SWAP(), p);
  if (a == lo) {
    apply_adjacent(matrix, lo);
  } else {
    // First-listed qubit (matrix LSB) sits at the *upper* site: conjugate by
    // SWAP to exchange the matrix's qubit roles.
    apply_adjacent(gates::SWAP() * matrix * gates::SWAP(), lo);
  }
  for (unsigned p = lo + 1; p < hi; ++p) apply_adjacent(gates::SWAP(), p);
}

void MpsState::apply_circuit(const Circuit& circuit) {
  PTSBE_REQUIRE(circuit.num_qubits() <= n_, "circuit wider than the MPS");
  for (const Operation& op : circuit.ops()) {
    if (op.kind != OpKind::kGate) continue;
    apply_gate(op.matrix, op.qubits);
  }
}

double MpsState::norm2() {
  const Tensor& c = t_[center_];
  double s = 0.0;
  for (const cplx& v : c.data) s += std::norm(v);
  return s;
}

double MpsState::branch_probability(const Matrix& k,
                                    std::span<const unsigned> qubits) {
  if (qubits.size() == 1) {
    const unsigned q = qubits[0];
    move_center_to(q);
    const Tensor& tn = t_[q];
    double before = 0.0, after = 0.0;
    for (std::size_t l = 0; l < tn.dl; ++l)
      for (std::size_t r = 0; r < tn.dr; ++r) {
        const cplx v0 = tn.data[(l * 2 + 0) * tn.dr + r];
        const cplx v1 = tn.data[(l * 2 + 1) * tn.dr + r];
        before += std::norm(v0) + std::norm(v1);
        after += std::norm(k(0, 0) * v0 + k(0, 1) * v1) +
                 std::norm(k(1, 0) * v0 + k(1, 1) * v1);
      }
    PTSBE_REQUIRE(before > 1e-300, "zero-norm state");
    return after / before;
  }
  // Two-qubit: evaluate on a copy (swap chains + truncation live there).
  MpsState copy = *this;
  const double before = copy.norm2();
  copy.apply_gate(k, qubits);
  const double after = copy.norm2();
  PTSBE_REQUIRE(before > 1e-300, "zero-norm state");
  return after / before;
}

double MpsState::apply_kraus_branch(const Matrix& k,
                                    std::span<const unsigned> qubits) {
  // norm2() reads the orthogonality center's tensor, so a one-qubit
  // operator is applied at the center.
  if (qubits.size() == 1) move_center_to(qubits[0]);
  const double before = norm2();
  PTSBE_REQUIRE(before > 1e-300, "zero-norm state");
  apply_gate(k, qubits);
  const double after = norm2();
  const double p = after / before;
  PTSBE_REQUIRE(std::isfinite(p), "Kraus branch probability is not finite");
  if (p > 1e-300) {
    const double scale = std::sqrt(before / after);
    for (cplx& v : t_[center_].data) v *= scale;
  }
  return p;
}

cplx MpsState::amplitude(std::uint64_t index) const {
  std::vector<cplx> v{cplx{1.0, 0.0}};
  for (unsigned q = 0; q < n_; ++q) {
    const Tensor& tn = t_[q];
    const std::size_t s = (index >> q) & 1ULL;
    std::vector<cplx> nv(tn.dr, cplx{0.0, 0.0});
    for (std::size_t l = 0; l < tn.dl; ++l) {
      if (v[l] == cplx{0.0, 0.0}) continue;
      for (std::size_t r = 0; r < tn.dr; ++r)
        nv[r] += v[l] * tn.data[(l * 2 + s) * tn.dr + r];
    }
    v = std::move(nv);
  }
  return v[0];
}

std::vector<cplx> MpsState::to_statevector() const {
  PTSBE_REQUIRE(n_ <= 20, "to_statevector is a test helper for n <= 20");
  // Progressive contraction: rows indexed by the first q qubits, columns by
  // the open bond.
  std::vector<cplx> acc{cplx{1.0, 0.0}};
  std::size_t rows = 1, bond = 1;
  for (unsigned q = 0; q < n_; ++q) {
    const Tensor& tn = t_[q];
    std::vector<cplx> next(rows * 2 * tn.dr, cplx{0.0, 0.0});
    for (std::size_t x = 0; x < rows; ++x)
      for (std::size_t l = 0; l < bond; ++l) {
        const cplx v = acc[x * bond + l];
        if (v == cplx{0.0, 0.0}) continue;
        for (std::size_t s = 0; s < 2; ++s)
          for (std::size_t r = 0; r < tn.dr; ++r)
            next[(x + (s << q)) * tn.dr + r] +=
                v * tn.data[(l * 2 + s) * tn.dr + r];
      }
    acc = std::move(next);
    rows *= 2;
    bond = tn.dr;
  }
  return acc;
}

namespace {

/// The record bits each qubit's outcome 1 sets: bit i for every i with
/// measured[i] == q, or bit q for every qubit when `measured` is empty.
std::vector<std::uint64_t> record_bits(unsigned num_qubits,
                                       std::span<const unsigned> measured) {
  const std::size_t width = measured.empty() ? num_qubits : measured.size();
  PTSBE_REQUIRE(width <= 64, "an MPS record holds at most 64 qubits; got " +
                                 std::to_string(width));
  std::vector<std::uint64_t> bits(num_qubits, 0);
  if (measured.empty()) {
    for (unsigned q = 0; q < num_qubits; ++q) bits[q] = std::uint64_t{1} << q;
    return bits;
  }
  for (std::size_t i = 0; i < measured.size(); ++i) {
    PTSBE_REQUIRE(measured[i] < num_qubits, "measured qubit out of range");
    bits[measured[i]] |= std::uint64_t{1} << i;
  }
  return bits;
}

}  // namespace

std::uint64_t MpsState::sample_from_canonical(
    RngStream& rng, std::span<const std::uint64_t> bits) const {
  PTSBE_ASSERT(center_ == 0);
  std::uint64_t shot = 0;
  std::vector<cplx> left{cplx{1.0, 0.0}};
  for (unsigned q = 0; q < n_; ++q) {
    const Tensor& tn = t_[q];
    // Candidate boundary vectors for outcome 0/1 and their weights.
    std::vector<cplx> cand[2];
    double w[2] = {0.0, 0.0};
    for (std::size_t s = 0; s < 2; ++s) {
      cand[s].assign(tn.dr, cplx{0.0, 0.0});
      for (std::size_t l = 0; l < tn.dl; ++l) {
        if (left[l] == cplx{0.0, 0.0}) continue;
        for (std::size_t r = 0; r < tn.dr; ++r)
          cand[s][r] += left[l] * tn.data[(l * 2 + s) * tn.dr + r];
      }
      for (const cplx& v : cand[s]) w[s] += std::norm(v);
    }
    const double total = w[0] + w[1];
    PTSBE_CHECK(total > 1e-300, "sampling hit a zero-probability prefix");
    const std::size_t s = rng.uniform() * total < w[0] ? 0 : 1;
    if (s == 1) shot |= bits[q];
    const double inv = 1.0 / std::sqrt(w[s]);
    left = std::move(cand[s]);
    for (cplx& v : left) v *= inv;
  }
  return shot;
}

std::vector<std::uint64_t> MpsState::sample_records(
    std::size_t count, RngStream& rng, std::span<const unsigned> measured) {
  const std::vector<std::uint64_t> bits = record_bits(n_, measured);
  // The single canonicalisation below is the cached environment shared by
  // the whole batch — the heart of the batched-execution win on the
  // tensor-network backend.
  move_center_to(0);
  std::vector<std::uint64_t> records(count);
  for (std::size_t i = 0; i < count; ++i)
    records[i] = sample_from_canonical(rng, bits);
  return records;
}

std::uint64_t MpsState::sample_one_uncached(
    RngStream& rng, std::span<const unsigned> measured) {
  const std::vector<std::uint64_t> bits = record_bits(n_, measured);
  // Deliberately re-canonicalise the whole chain, mimicking per-sample
  // re-contraction of the tensor network (the paper's un-cached baseline).
  move_center_to(n_ - 1);
  move_center_to(0);
  return sample_from_canonical(rng, bits);
}

}  // namespace ptsbe

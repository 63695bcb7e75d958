#include "ptsbe/linalg/matrix.hpp"

#include <cmath>

namespace ptsbe {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = cplx{1.0, 0.0};
  return m;
}

Matrix Matrix::dagger() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c)
      out(c, r) = std::conj((*this)(r, c));
  return out;
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  return out;
}

Matrix Matrix::conj() const {
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i)
    out.data_[i] = std::conj(data_[i]);
  return out;
}

cplx Matrix::trace() const {
  PTSBE_REQUIRE(is_square(), "trace() requires a square matrix");
  cplx t{0.0, 0.0};
  for (std::size_t i = 0; i < rows_; ++i) t += (*this)(i, i);
  return t;
}

double Matrix::frobenius_norm() const noexcept {
  double s = 0.0;
  for (const cplx& v : data_) s += std::norm(v);
  return std::sqrt(s);
}

double Matrix::max_abs_diff(const Matrix& other) const {
  PTSBE_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                "max_abs_diff() shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    const double d = std::abs(data_[i] - other.data_[i]);
    // std::max(m, NaN) is m: return the NaN, so no tolerance accepts it.
    if (std::isnan(d)) return d;
    m = std::max(m, d);
  }
  return m;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  PTSBE_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "operator+= shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  PTSBE_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "operator-= shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(cplx scalar) noexcept {
  for (cplx& v : data_) v *= scalar;
  return *this;
}

Matrix operator*(const Matrix& lhs, const Matrix& rhs) {
  PTSBE_REQUIRE(lhs.cols() == rhs.rows(), "operator* inner-dimension mismatch");
  Matrix out(lhs.rows(), rhs.cols());
  for (std::size_t r = 0; r < lhs.rows(); ++r) {
    for (std::size_t k = 0; k < lhs.cols(); ++k) {
      const cplx a = lhs(r, k);
      if (a == cplx{0.0, 0.0}) continue;
      for (std::size_t c = 0; c < rhs.cols(); ++c) out(r, c) += a * rhs(k, c);
    }
  }
  return out;
}

Matrix kron(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows() * b.rows(), a.cols() * b.cols());
  for (std::size_t ar = 0; ar < a.rows(); ++ar)
    for (std::size_t ac = 0; ac < a.cols(); ++ac) {
      const cplx v = a(ar, ac);
      if (v == cplx{0.0, 0.0}) continue;
      for (std::size_t br = 0; br < b.rows(); ++br)
        for (std::size_t bc = 0; bc < b.cols(); ++bc)
          out(ar * b.rows() + br, ac * b.cols() + bc) = v * b(br, bc);
    }
  return out;
}

bool approx_equal(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return a.max_abs_diff(b) <= tol;
}

bool is_unitary(const Matrix& m, double tol) {
  if (!m.is_square() || m.empty()) return false;
  return approx_equal(m.dagger() * m, Matrix::identity(m.rows()), tol);
}

bool is_hermitian(const Matrix& m, double tol) {
  if (!m.is_square() || m.empty()) return false;
  return approx_equal(m, m.dagger(), tol);
}

bool is_cptp_set(std::span<const Matrix> kraus_ops, double tol) {
  if (kraus_ops.empty()) return false;
  const std::size_t dim = kraus_ops.front().cols();
  Matrix sum(dim, dim);
  for (const Matrix& k : kraus_ops) {
    if (k.cols() != dim || k.rows() != dim) return false;
    sum += k.dagger() * k;
  }
  return approx_equal(sum, Matrix::identity(dim), tol);
}

bool as_scaled_unitary(const Matrix& k, double& probability, Matrix* unitary,
                       double tol) {
  if (!k.is_square() || k.empty()) return false;
  // K = c·U  ⇔  K†K = |c|²·I. |c|² is then tr(K†K)/dim.
  const Matrix gram = k.dagger() * k;
  const double p = gram.trace().real() / static_cast<double>(k.rows());
  if (p <= tol) return false;  // (near-)zero operator: not a usable unitary branch
  if (!approx_equal(gram, p * Matrix::identity(k.rows()), tol)) return false;
  probability = p;
  if (unitary != nullptr) {
    *unitary = k;
    *unitary *= cplx{1.0 / std::sqrt(p), 0.0};
  }
  return true;
}

}  // namespace ptsbe

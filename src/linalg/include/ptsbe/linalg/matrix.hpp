#pragma once

/// \file matrix.hpp
/// \brief Dense complex matrices for gate/Kraus-operator algebra.
///
/// These matrices are *small* (2^k × 2^k for k-qubit operators, or χ·d × χ·d
/// MPS bond blocks); the exponentially large simulation state lives in the
/// backend-specific containers, never here. Row-major storage,
/// `std::complex<double>` elements.

#include <complex>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "ptsbe/common/error.hpp"

namespace ptsbe {

using cplx = std::complex<double>;

/// Dense row-major complex matrix.
class Matrix {
 public:
  /// Empty 0×0 matrix.
  Matrix() = default;

  /// rows×cols matrix initialised to zero.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, cplx{0.0, 0.0}) {}

  /// rows×cols matrix from row-major values (size must match).
  Matrix(std::size_t rows, std::size_t cols, std::initializer_list<cplx> values)
      : rows_(rows), cols_(cols), data_(values) {
    PTSBE_REQUIRE(data_.size() == rows * cols,
                  "initializer size must equal rows*cols");
  }

  /// rows×cols matrix adopting `values` (row-major; size must match).
  Matrix(std::size_t rows, std::size_t cols, std::vector<cplx> values)
      : rows_(rows), cols_(cols), data_(std::move(values)) {
    PTSBE_REQUIRE(data_.size() == rows * cols,
                  "value vector size must equal rows*cols");
  }

  /// n×n identity.
  static Matrix identity(std::size_t n);

  /// rows×cols zero matrix.
  static Matrix zero(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols);
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  [[nodiscard]] bool is_square() const noexcept { return rows_ == cols_; }

  /// Element access (unchecked in release builds).
  cplx& operator()(std::size_t r, std::size_t c) noexcept {
    PTSBE_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  const cplx& operator()(std::size_t r, std::size_t c) const noexcept {
    PTSBE_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Raw row-major storage.
  [[nodiscard]] std::span<const cplx> data() const noexcept { return data_; }
  [[nodiscard]] std::span<cplx> data() noexcept { return data_; }

  /// Conjugate transpose.
  [[nodiscard]] Matrix dagger() const;

  /// Plain transpose (no conjugation).
  [[nodiscard]] Matrix transpose() const;

  /// Elementwise complex conjugate.
  [[nodiscard]] Matrix conj() const;

  /// Trace (square matrices only).
  [[nodiscard]] cplx trace() const;

  /// Frobenius norm.
  [[nodiscard]] double frobenius_norm() const noexcept;

  /// Max elementwise |difference| against another matrix of the same shape;
  /// NaN when any difference is NaN, so no tolerance check passes it.
  [[nodiscard]] double max_abs_diff(const Matrix& other) const;

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(cplx scalar) noexcept;

  friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
  friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
  friend Matrix operator*(Matrix lhs, cplx scalar) noexcept { return lhs *= scalar; }
  friend Matrix operator*(cplx scalar, Matrix rhs) noexcept { return rhs *= scalar; }

  /// Matrix product.
  friend Matrix operator*(const Matrix& lhs, const Matrix& rhs);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<cplx> data_;
};

/// Kronecker (tensor) product a ⊗ b.
[[nodiscard]] Matrix kron(const Matrix& a, const Matrix& b);

/// True when every element of a and b differs by at most `tol` and shapes match.
[[nodiscard]] bool approx_equal(const Matrix& a, const Matrix& b,
                                double tol = 1e-12);

/// ‖A†A − I‖_max ≤ tol (square matrices).
[[nodiscard]] bool is_unitary(const Matrix& m, double tol = 1e-10);

/// ‖A − A†‖_max ≤ tol.
[[nodiscard]] bool is_hermitian(const Matrix& m, double tol = 1e-10);

/// True if Σ_i K_i† K_i = I within tol, i.e. the set is a valid CPTP channel.
[[nodiscard]] bool is_cptp_set(std::span<const Matrix> kraus_ops,
                               double tol = 1e-10);

/// Detect whether K is a scaled unitary, K = c·U with |c|² = `probability`.
/// Returns true and fills `probability` (and `unitary` when non-null) on
/// success. This is the unitary-mixture detection the paper's §2.2 feature (2)
/// relies on: scaled-unitary Kraus operators have state-independent branch
/// probabilities.
[[nodiscard]] bool as_scaled_unitary(const Matrix& k, double& probability,
                                     Matrix* unitary = nullptr,
                                     double tol = 1e-10);

}  // namespace ptsbe

#pragma once

/// \file mps.hpp
/// \brief Matrix-product-state tensor-network simulator backend.
///
/// CPU stand-in for the paper's CUDA-Q `tensornet` (cuTensorNet) backend.
/// States are MPS chains with SVD-truncated bonds; two-qubit gates use the
/// TEBD scheme (merge → gate → SVD → truncate) with swap chains for
/// non-adjacent targets.
///
/// Sampling follows the perfect-sampling algorithm (qubit-by-qubit
/// conditional probabilities). The expensive step is bringing the chain to
/// right-canonical form — the analogue of the tensor-network contraction the
/// paper says "must reoccur for each sample" in the un-cached CUDA-Q flow.
/// `sample_records` performs that canonicalisation *once* and reuses it for
/// every shot in the batch (the cached-environment fast path the paper calls
/// for); `sample_one_uncached` deliberately redoes it per shot so the
/// ablation bench can measure exactly what caching buys. Both draw every
/// qubit of the chain and keep the outcomes of the measured ones, so a
/// chain may be wider than a 64-bit record.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ptsbe/circuit/circuit.hpp"
#include "ptsbe/common/rng.hpp"
#include "ptsbe/linalg/matrix.hpp"

namespace ptsbe {

/// Truncation policy for MPS bonds.
struct MpsConfig {
  /// Hard cap on bond dimension (0 = unbounded).
  std::size_t max_bond = 0;
  /// Allowed discarded squared weight per SVD, relative to total.
  double truncation_error = 1e-12;
};

/// Running statistics of truncation activity.
struct MpsStats {
  double total_discarded_weight = 0.0;  ///< Σ over SVDs of discarded Σσ².
  std::size_t max_bond_reached = 1;     ///< Largest bond dimension seen.
  std::size_t svd_count = 0;            ///< Number of SVDs performed.
};

/// MPS state with gate application, Kraus branches and batched sampling.
///
/// Copy construction deep-copies the site tensors — O(n·χ²) and therefore a
/// *cheap* snapshot relative to re-running the prefix, which is why the MPS
/// backend offers itself to the shared-prefix trajectory scheduler.
class MpsState {
 public:
  /// |0…0⟩ on `num_qubits` qubits.
  explicit MpsState(unsigned num_qubits, MpsConfig config = {});

  [[nodiscard]] unsigned num_qubits() const noexcept { return n_; }
  [[nodiscard]] const MpsConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const MpsStats& stats() const noexcept { return stats_; }

  /// Reset to |0…0⟩ (stats are cleared too).
  void reset();

  /// Apply a unitary on 1 or 2 qubits (first listed qubit = LSB of matrix).
  /// Non-adjacent pairs are routed with swap chains.
  void apply_gate(const Matrix& matrix, std::span<const unsigned> qubits);

  /// Run every gate op of `circuit` in order.
  void apply_circuit(const Circuit& circuit);

  /// ⟨ψ|K†K|ψ⟩ for a 1- or 2-qubit Kraus operator at the current state.
  /// Moves the orthogonality center (hence non-const); the quantum state is
  /// unchanged.
  [[nodiscard]] double branch_probability(const Matrix& k,
                                          std::span<const unsigned> qubits);

  /// Apply Kraus operator K and renormalise; returns ‖K|ψ⟩‖² as the norm
  /// ratio after/before. At or below 1e-300 the state is left as K|ψ⟩,
  /// unnormalised, and the caller must discard it. \throws
  /// precondition_error on a zero-norm input state or a non-finite ratio.
  double apply_kraus_branch(const Matrix& k, std::span<const unsigned> qubits);

  /// Squared norm (1 for normalised states; < 1 after truncation loss).
  [[nodiscard]] double norm2();

  /// Amplitude ⟨index|ψ⟩ (bit q of `index` = outcome of qubit q).
  [[nodiscard]] cplx amplitude(std::uint64_t index) const;

  /// Dense 2^n amplitude vector (test helper; n ≤ 20 enforced).
  [[nodiscard]] std::vector<cplx> to_statevector() const;

  /// Batched perfect sampling: right-canonicalise once (the cached
  /// environment), then draw `count` shots at O(n·χ²) each. Bit i of a
  /// record is the outcome of measured[i]; empty `measured` records every
  /// qubit, qubit q in bit q.
  /// \throws precondition_error when a record would exceed 64 bits or a
  ///         measured qubit is out of range.
  [[nodiscard]] std::vector<std::uint64_t> sample_records(
      std::size_t count, RngStream& rng, std::span<const unsigned> measured);

  /// One record with NO environment reuse: re-canonicalises the entire
  /// chain first, mimicking per-sample re-contraction (ablation baseline).
  /// `measured` and the throws as for `sample_records`.
  [[nodiscard]] std::uint64_t sample_one_uncached(
      RngStream& rng, std::span<const unsigned> measured);

  /// Largest current bond dimension.
  [[nodiscard]] std::size_t max_bond_dim() const noexcept;

 private:
  /// Site tensor, index order (left, physical, right):
  /// data[(l*2 + s)*dr + r].
  struct Tensor {
    std::size_t dl = 1, dr = 1;
    std::vector<cplx> data;
  };

  void move_center_to(unsigned site);
  void shift_center_right();  // center_ → center_+1
  void shift_center_left();   // center_ → center_-1
  /// TEBD step on adjacent sites (p, p+1); `g` is 4×4 with site p = LSB.
  /// Leaves the center at p+1. Does not renormalise (norm tracks K exactly).
  void apply_adjacent(const Matrix& g, unsigned p);
  void apply_gate1(const Matrix& g, unsigned q);
  /// Draw one record given right-canonical form (center at 0) without
  /// disturbing the state; outcome 1 of qubit q sets the record bits
  /// `bits[q]`.
  [[nodiscard]] std::uint64_t sample_from_canonical(
      RngStream& rng, std::span<const std::uint64_t> bits) const;

  unsigned n_;
  MpsConfig cfg_;
  MpsStats stats_;
  std::vector<Tensor> t_;
  unsigned center_ = 0;
};

}  // namespace ptsbe

#pragma once

/// \file density_matrix.hpp
/// \brief Exact density-matrix simulator.
///
/// The O(4^n) gold-standard representation of a noisy quantum system that
/// the paper's introduction frames trajectory methods against. Used here as
/// the ground truth that every trajectory-based pipeline (Algorithm-1
/// baseline and PTSBE) must statistically converge to — the core validation
/// of the whole repository. Practical up to ~10 qubits.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ptsbe/circuit/circuit.hpp"
#include "ptsbe/common/aligned.hpp"
#include "ptsbe/common/rng.hpp"
#include "ptsbe/kernels/kernel_set.hpp"
#include "ptsbe/linalg/matrix.hpp"
#include "ptsbe/noise/noise_model.hpp"

namespace ptsbe {

/// Dense 2^n × 2^n density matrix with unitary/channel application.
///
/// Copy construction is a deep snapshot of ρ — the fork primitive the
/// shared-prefix trajectory scheduler relies on.
class DensityMatrix {
 public:
  /// |0…0⟩⟨0…0| on `num_qubits` qubits. Precondition: 1 <= num_qubits <= 13.
  explicit DensityMatrix(unsigned num_qubits);

  /// Reset to |0…0⟩⟨0…0|.
  void reset();

  [[nodiscard]] unsigned num_qubits() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t dim() const noexcept { return dim_; }

  /// Element ρ(r, c).
  [[nodiscard]] cplx element(std::uint64_t r, std::uint64_t c) const;

  /// ρ ← U ρ U† for unitary U on `qubits` (first listed = LSB).
  void apply_unitary(const Matrix& u, std::span<const unsigned> qubits);

  /// Alias for apply_unitary matching the state-backend concept
  /// (apply_gate / apply_kraus_branch) the unified Backend adapters
  /// prepare trajectories through.
  void apply_gate(const Matrix& u, std::span<const unsigned> qubits) {
    apply_unitary(u, qubits);
  }

  /// Batched kernel entry point: conjugate ρ by a pre-classified gate run
  /// in one pass (each gate is U·ρ then ρ·U†, both through the flat-index
  /// amplitude kernels — see apply_op_left).
  void apply_prepared_gates(std::span<const kernels::PreparedGate> gates);

  /// tr(K†K ρ) — the realised branch probability of Kraus operator K on
  /// `qubits` at the current state. Does not modify the state.
  [[nodiscard]] double branch_probability(const Matrix& k,
                                          std::span<const unsigned> qubits) const;

  /// Apply one Kraus branch and renormalise: ρ ← K ρ K† / tr(K ρ K†).
  /// Returns the pre-normalisation trace. At or below 1e-300 ρ is left as
  /// K ρ K†, unnormalised, and the caller must discard it.
  /// \throws precondition_error when the trace is not finite.
  double apply_kraus_branch(const Matrix& k, std::span<const unsigned> qubits);

  /// ρ ← Σ_i K_i ρ K_i† for a Kraus channel on `qubits`.
  void apply_channel(const KrausChannel& channel,
                     std::span<const unsigned> qubits);

  /// Run all gate ops of a coherent circuit.
  void apply_circuit(const Circuit& circuit);

  /// Run a noisy program exactly: every gate, with every noise site applied
  /// as its full channel (no sampling). The result is the exact mixed state
  /// all trajectory ensembles approximate.
  void apply_noisy_circuit(const NoisyCircuit& noisy);

  /// tr(ρ) — 1 for valid evolutions.
  [[nodiscard]] double trace_real() const;

  /// tr(ρ²) — purity.
  [[nodiscard]] double purity() const;

  /// Diagonal of ρ: exact computational-basis outcome distribution.
  [[nodiscard]] std::vector<double> probabilities() const;

  /// ⟨ψ|ρ|ψ⟩ fidelity against a pure state given by its amplitudes.
  [[nodiscard]] double fidelity_with_pure(std::span<const cplx> psi) const;

  /// Expectation tr(ρP) of a Pauli string on `qubits`.
  [[nodiscard]] double expectation_pauli(const std::string& pauli,
                                         std::span<const unsigned> qubits) const;

  /// Bulk computational-basis shots from the diagonal (sorted-uniform pass).
  /// Consumes `count + 1` doubles of `rng` (none when `count` is 0).
  [[nodiscard]] std::vector<std::uint64_t> sample_shots(std::size_t count,
                                                        RngStream& rng) const;

  /// The in-place half of `sample_shots` over pre-drawn exponentials:
  /// `exponentials_to_records` (ptsbe/common/inverse_cdf.hpp) with
  /// max(0, Re ρ_ii) as the bin mass. Read-only on the state, so concurrent
  /// calls are safe.
  void records_from_exponentials(std::span<std::uint64_t> words, double last,
                                 std::span<const unsigned> measured) const;

 private:
  // Left-multiply rows by M on `qubits` (ρ ← M ρ), then the adjoint pass
  // right-multiplies (ρ ← ρ M†). For arity <= 2 both passes run through the
  // SIMD amplitude kernels on the flat row-major array: the flat index is
  // (r << n) | c, so M ρ is a kernel apply on qubits shifted up by n and
  // ρ M† is a kernel apply of conj(M) on the unshifted qubits.
  void apply_op_left(const Matrix& m, std::span<const unsigned> qubits);
  void apply_op_right_dagger(const Matrix& m, std::span<const unsigned> qubits);
  // General k-qubit fallbacks (arity > 2).
  void apply_op_left_k(const Matrix& m, std::span<const unsigned> qubits);
  void apply_op_right_dagger_k(const Matrix& m,
                               std::span<const unsigned> qubits);

  unsigned n_;
  std::uint64_t dim_;
  AlignedVector<cplx> rho_;  // row-major dim_ × dim_
};

}  // namespace ptsbe

#pragma once

/// \file statevector.hpp
/// \brief Dense statevector simulator backend.
///
/// CPU stand-in for the paper's CUDA-Q `nvidia` (cuStateVec) backend. The
/// state is a 2^n complex-double array; gate kernels stride over amplitude
/// groups exactly like the GPU implementation slices them. Above 2^14
/// amplitudes the sweeps, the reductions, the rescales and the k-qubit
/// gates split into fixed 2^14-amplitude ranges, and a general-Kraus sweep
/// into units of four such blocks, across the calling executor worker's
/// idle peers (ptsbe/common/parallel.hpp; the analogue of intra-trajectory
/// multi-GPU distribution); reductions add fixed 2^14-item block sums in
/// block order, so no bit depends on the thread count.
///
/// The backend exposes the two cost regimes PTSBE exploits:
///  - `apply_gate` / `apply_kraus_branches`: O(2^n) state preparation work;
///  - `sample_shots`: O(2^n + m) *bulk* measurement sampling — linear in
///    the shot count m and a single pass over the state, which is why
///    batching m shots per prepared trajectory is the paper's win.

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
#include "ptsbe/noise/kraus.hpp"

namespace ptsbe {

/// Dense 2^n statevector with gate/Kraus application and bulk sampling.
///
/// Copy construction is a deep snapshot of the amplitude array — the fork
/// primitive the shared-prefix trajectory scheduler relies on (one copy
/// costs about one gate sweep).
class StateVector {
 public:
  /// |0…0⟩ on `num_qubits` qubits. Precondition: 1 <= num_qubits <= 30
  /// (memory gate: 2^30 amplitudes = 16 GiB).
  explicit StateVector(unsigned num_qubits);

  /// Reset to |0…0⟩.
  void reset();

  [[nodiscard]] unsigned num_qubits() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t dim() const noexcept { return amp_.size(); }

  /// Amplitude of basis state `index`.
  [[nodiscard]] cplx amplitude(std::uint64_t index) const {
    return amp_.at(index);
  }

  /// Read-only view of all amplitudes.
  [[nodiscard]] std::span<const cplx> amplitudes() const noexcept { return amp_; }

  /// Apply a unitary `matrix` on `qubits` (first listed = LSB of the matrix).
  /// 1-/2-qubit gates go through the active SIMD kernel set
  /// (`ptsbe::kernels::active()`); wider gates take the general k-qubit path.
  void apply_gate(const Matrix& matrix, std::span<const unsigned> qubits);

  /// Batched kernel entry point: apply a pre-classified gate run (built once
  /// per ExecPlan) in one pass, hoisting the kernel-set lookup out of the
  /// per-gate loop.
  void apply_prepared_gates(std::span<const kernels::PreparedGate> gates);

  /// Run every gate op of `circuit` in order (measure ops are skipped).
  void apply_circuit(const Circuit& circuit);

  /// ⟨ψ|K†K|ψ⟩ for operator K on `qubits` — the realised branch probability
  /// of a general (non-unitary-mixture) Kraus operator at the current state
  /// (Algorithm 1, line 9). Does not modify the state.
  [[nodiscard]] double branch_probability(const Matrix& k,
                                          std::span<const unsigned> qubits) const;

  /// Apply the Kraus operators of a run of general-Kraus sites in order,
  /// |ψ⟩ ← K_i|ψ⟩/‖K_i|ψ⟩‖, writing p[i] = ‖K_i|ψ⟩‖² (p.size() ≥
  /// sites.size()). Stops after the first p[i] below `cut` or at most
  /// 1e-300 and returns the number of sites applied. A site whose K is
  /// diagonal (amplitude and phase damping's no-decay branch) is one
  /// `kraus_sweep` (kernel_set.hpp), its units split across the calling
  /// thread's team: the sweep multiplies by the previous site's 1/√p,
  /// applies K and sums each 2^14-amplitude block's |a|², and the block
  /// sums are added in block order — `norm2`'s bits. Any other site takes
  /// the pending rescale, K and `norm2` as three sweeps. Only the last
  /// site's rescale is a pass of its own, skipped when its p is at most
  /// 1e-300: the state is then K|ψ⟩, unnormalised, and the caller must
  /// discard it. \throws precondition_error when a site's operator does
  /// not fit the state, before any site is applied, or when a norm is not
  /// finite.
  std::size_t apply_kraus_branches(std::span<const KrausBranch> sites,
                                   double cut, std::span<double> p);

  /// One site of `apply_kraus_branches`: apply K on `qubits`, renormalise,
  /// and return the pre-normalisation probability ‖K|ψ⟩‖².
  double apply_kraus_branch(const Matrix& k, std::span<const unsigned> qubits);

  /// Squared norm of the state (should be 1 after normalised operations).
  [[nodiscard]] double norm2() const noexcept;

  /// Expectation ⟨ψ|P|ψ⟩ of a Pauli string; `pauli[i]` in {I,X,Y,Z} acts on
  /// `qubits[i]`. Returns the real part (P Hermitian).
  [[nodiscard]] double expectation_pauli(const std::string& pauli,
                                         std::span<const unsigned> qubits) const;

  /// |⟨φ|ψ⟩|² against another state of equal dimension.
  [[nodiscard]] double fidelity(const StateVector& other) const;

  /// Draw one computational-basis shot (full n-bit index) by inverse CDF.
  [[nodiscard]] std::uint64_t sample_one(RngStream& rng) const;

  /// Bulk sampler: draw `count` shots in a *single pass* over the state
  /// using pre-sorted uniforms — the Batched Execution primitive. Cost
  /// O(2^n + count), versus O(count · 2^n) for repeated `sample_one`-style
  /// re-preparation in conventional trajectory pipelines. Consumes
  /// `count + 1` doubles of `rng` (none when `count` is 0).
  [[nodiscard]] std::vector<std::uint64_t> sample_shots(std::size_t count,
                                                        RngStream& rng) const;

  /// The in-place half of `sample_shots` over pre-drawn exponentials:
  /// `exponentials_to_records` (ptsbe/common/inverse_cdf.hpp) with
  /// |amplitude|² as the bin mass. Read-only on the state, so concurrent
  /// calls are safe.
  void records_from_exponentials(std::span<std::uint64_t> words, double last,
                                 std::span<const unsigned> measured) const;

 private:
  void check_operator(const Matrix& m, std::span<const unsigned> qubits) const;
  void apply_matrix_k(const Matrix& m, std::span<const unsigned> qubits);

  unsigned n_;
  AlignedVector<cplx> amp_;
};

}  // namespace ptsbe

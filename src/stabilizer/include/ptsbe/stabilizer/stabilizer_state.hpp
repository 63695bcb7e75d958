#pragma once

/// \file stabilizer_state.hpp
/// \brief A trajectory's Clifford circuit as a forkable simulation state.
///
/// A spec fixes every Pauli-mixture site to one branch, so a trajectory of
/// a Clifford + Pauli-noise program is a Clifford circuit. The plan walk
/// records it on a `StabilizerState` and the leaf samples it with the
/// `PauliFrameSampler`. The state holds (gate, qubits) entries, not
/// matrices, so the snapshot a fork takes is one small vector copy.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ptsbe/common/rng.hpp"
#include "ptsbe/linalg/matrix.hpp"

namespace ptsbe {

/// The Clifford circuit of one trajectory, starting from |0…0⟩.
class StabilizerState {
 public:
  explicit StabilizerState(unsigned num_qubits) : n_(num_qubits) {}

  /// Record `matrix` on `qubits` (first listed = LSB of the matrix): a
  /// matrix exactly equal to the library matrix of h, s, sdg, sx, sxdg, sy,
  /// sydg, cx, cz or swap under that name, a Pauli tensor (up to global
  /// phase) as one x, y or z per non-identity factor.
  /// \throws precondition_error for any other matrix.
  void apply_gate(const Matrix& matrix, std::span<const unsigned> qubits);

  /// True when `apply_gate` records `matrix` on `arity` qubits. The
  /// stabilizer backend admits a program's gates by this test, so a gate
  /// it cannot record is refused before any trajectory runs.
  [[nodiscard]] static bool can_record(const Matrix& matrix,
                                       std::size_t arity);

  /// \throws precondition_error always: a general Kraus branch has no
  ///         stabilizer form.
  double apply_kraus_branch(const Matrix& k, std::span<const unsigned> qubits);

  /// Measure each `measured` qubit in order after the recorded circuit
  /// (none: every qubit, qubit q in bit q), reference-simulate the circuit
  /// on a seed drawn from `rng`, then bulk-sample `count` records' frames
  /// from `rng`. Measuring at the end equals measuring in program order
  /// only when no step touches a qubit after its measurement, which the
  /// stabilizer backend requires of its programs.
  /// \throws precondition_error when a record would exceed 64 bits.
  [[nodiscard]] std::vector<std::uint64_t> sample_records(
      std::size_t count, RngStream& rng,
      std::span<const unsigned> measured) const;

 private:
  struct Op {
    std::uint8_t gate = 0;  ///< Index into the recorded-gate table.
    unsigned a = 0;
    unsigned b = 0;  ///< Second qubit of a two-qubit gate.
  };

  /// The one recognition behind `apply_gate` and `can_record`: append what
  /// `matrix` on `qubits` records to `ops`, or return false.
  static bool recognise(const Matrix& matrix, std::span<const unsigned> qubits,
                        std::vector<Op>& ops);

  unsigned n_;
  std::vector<Op> ops_;
};

}  // namespace ptsbe

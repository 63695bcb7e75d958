#pragma once

/// \file pauli_frame.hpp
/// \brief Pauli-frame bulk sampler for Clifford circuits with Pauli noise.
///
/// This is the reference-frame technique the paper credits for Stim's MHz
/// bulk sampling (§2.3): simulate the noiseless Clifford circuit *once* with
/// the tableau to obtain a reference measurement record, then propagate only
/// the Pauli *difference frame* for each noisy shot. Frames are bit-packed
/// 64 shots per machine word, so gate propagation is word-parallel XOR.
///
/// Restrictions (exactly the ones the paper cites as Stim's limitation):
/// every gate must be Clifford and every noise channel a Pauli unitary
/// mixture. The MSD workload violates them (magic-state inputs), which is
/// why PTSBE exists; this sampler is the baseline that defines the frontier.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ptsbe/common/rng.hpp"
#include "ptsbe/noise/noise_model.hpp"
#include "ptsbe/stabilizer/tableau.hpp"

namespace ptsbe {

/// If `u` equals a Pauli tensor up to global phase, return true and fill
/// per-qubit (x, z) toggles (qubit 0 = LSB of the matrix). Shared by the
/// frame sampler's branch tables and `StabilizerState`.
[[nodiscard]] bool pauli_toggles(const Matrix& u, unsigned arity,
                                 std::vector<std::pair<bool, bool>>& out);

/// Bulk sampler over Pauli frames.
class PauliFrameSampler {
 public:
  /// Prepare the sampler: runs the tableau reference simulation and
  /// pre-resolves each noise-site branch into per-qubit (x, z) toggles.
  ///
  /// \throws precondition_error if the program is outside the
  ///         Clifford+Pauli-noise fragment (check with is_supported first).
  PauliFrameSampler(const NoisyCircuit& noisy, RngStream reference_rng);

  /// True if every gate is Clifford and every channel a Pauli mixture.
  [[nodiscard]] static bool is_supported(const NoisyCircuit& noisy);

  /// Draw `shots` noisy measurement records. Bit i of a record is the i-th
  /// measured qubit's outcome. Word-parallel across shots.
  [[nodiscard]] std::vector<std::uint64_t> sample(std::size_t shots,
                                                  RngStream& rng) const;

 private:
  // One executable step of the pre-compiled program.
  struct Step {
    enum class Kind : std::uint8_t { kGate, kNoise, kMeasure } kind;
    // kGate: frame transform id + qubits. kNoise: site id. kMeasure:
    // qubit + record position.
    unsigned a = 0, b = 0;
    std::size_t site = 0;
    unsigned record_pos = 0;
    enum class Xform : std::uint8_t {
      kNone, kSwapXZ, kZxorX, kXxorZ, kCx, kCz, kSwap
    } xform = Xform::kNone;
  };

  // Per-site pre-resolved branch table: cumulative probabilities and the
  // (x,z) toggle masks per involved qubit for each branch.
  struct SiteTable {
    std::vector<double> cumulative;
    std::vector<unsigned> qubits;
    // toggles[branch][k] = {x_toggle, z_toggle} for qubits[k].
    std::vector<std::vector<std::pair<bool, bool>>> toggles;
    std::size_t identity_branch;  // fast skip
    double identity_probability;
  };

  unsigned n_ = 0;
  std::vector<Step> program_;
  std::vector<SiteTable> site_tables_;
  std::vector<unsigned> measured_;       // measured qubits in record order
  std::vector<std::uint8_t> reference_;  // reference outcome per record bit
};

}  // namespace ptsbe

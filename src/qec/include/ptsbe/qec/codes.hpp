#pragma once

/// \file codes.hpp
/// \brief Concrete code constructions used by the MSD workloads.
///
/// The paper's experiments encode the 5-qubit magic state distillation
/// protocol into the [[7,1,3]] Steane colour code (35 physical qubits) and
/// the [[17,1,5]] 4.8.8 colour code (85 physical qubits). We implement the
/// Steane code exactly. For the distance-5 block we substitute the rotated
/// surface code [[25,1,5]] — a distance-5 CSS code we can construct and
/// brute-force-verify programmatically (the 4.8.8 face layout is not
/// recoverable from the paper text alone). The distance-5 block only feeds
/// the Fig. 5 preparation workload, which encodes five magic states through
/// any CSS code's synthesised encoder, so the substitution keeps its role at
/// 125 instead of 85 physical qubits. See qec::distillation for how the
/// codes are consumed.

#include <cstdint>
#include <string>
#include <vector>

#include "ptsbe/qec/stabilizer_code.hpp"

namespace ptsbe::qec {

/// Transversal readout basis of a CSS block. Z-basis readouts detect X
/// errors through the Z-type supports; X-basis readouts detect Z errors
/// through the X-type supports. Decoders and memory experiments take the
/// basis as a parameter and pick the matching support set.
enum class CssBasis : std::uint8_t { kZ, kX };

/// Registry-style name ("z" / "x").
[[nodiscard]] const std::string& to_string(CssBasis basis);
[[nodiscard]] CssBasis basis_from_string(const std::string& name);

/// A CSS [[n,1,d]] code: the generic stabilizer description plus the
/// X-/Z-type support masks the syndrome decoder consumes.
struct CssCode : StabilizerCode {
  std::vector<std::uint64_t> x_supports;  ///< X-type generator supports.
  std::vector<std::uint64_t> z_supports;  ///< Z-type generator supports.
  /// Designed distance in the Z readout basis (bit-flip distance). For the
  /// self-dual codes this is the full code distance; the repetition code
  /// protects X errors only, so its X-basis distance is 1.
  unsigned code_distance = 0;

  /// Check supports consumed by a `basis` readout decoder.
  [[nodiscard]] const std::vector<std::uint64_t>& check_supports(
      CssBasis basis) const {
    return basis == CssBasis::kZ ? z_supports : x_supports;
  }
  /// Support mask of the logical operator a `basis` readout measures.
  [[nodiscard]] std::uint64_t logical_support(CssBasis basis) const {
    return basis == CssBasis::kZ ? logical_z.z : logical_x.x;
  }
};

/// The [[7,1,3]] Steane colour code (X and Z stabilizers share the Hamming
/// parity-check supports; logical X̄ = X⊗7, Z̄ = Z⊗7).
[[nodiscard]] CssCode steane();

/// The rotated surface code [[d², 1, d]] for odd d ≥ 3.
[[nodiscard]] CssCode rotated_surface_code(unsigned d);

/// The [[d,1]] bit-flip repetition code for odd d ≥ 3: Z-type checks
/// Z_i Z_{i+1}, logical Z̄ = Z_0, X̄ = X⊗d. Distance d against X errors,
/// 1 against Z errors — the classic threshold-study workload (and the
/// smallest code whose union-find decoding graph is a nontrivial chain).
[[nodiscard]] CssCode repetition_code(unsigned d);

/// Code lookup by registry-style name: "repetition", "surface" (rotated
/// surface code), or "steane" (distance must be 3).
/// \throws precondition_error on unknown names or unsupported distances.
[[nodiscard]] CssCode make_code(const std::string& name, unsigned distance);

/// The [[5,1,3]] perfect code (non-CSS, cyclic stabilizers XZZXI…); its
/// decoder realises the 5→1 magic state distillation.
[[nodiscard]] StabilizerCode five_qubit_code();

}  // namespace ptsbe::qec

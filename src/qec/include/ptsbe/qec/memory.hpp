#pragma once

/// \file memory.hpp
/// \brief Ancilla-based syndrome extraction and QEC memory experiments.
///
/// The paper's §2.3 frames noisy QEC simulation around stabilizer
/// measurements: parity checks read out through ancillas, whose outcomes a
/// decoder consumes. This module generates circuit-level memory experiments
/// for CSS codes: encode |0_L⟩, run `rounds` of full syndrome extraction
/// (one fresh ancilla per stabilizer per round — no mid-circuit reset
/// needed, keeping the circuits inside every backend's terminal-measurement
/// model), then read out the data block transversally.
///
/// The circuits are Clifford, so they run on all four backends — including
/// the Pauli-frame bulk sampler — making them the cross-validation workload
/// where the Stim-like baseline and PTSBE can be compared head to head.

#include <cstdint>
#include <vector>

#include "ptsbe/circuit/circuit.hpp"
#include "ptsbe/qec/codes.hpp"
#include "ptsbe/qec/decoder.hpp"

namespace ptsbe::qec {

/// Layout bookkeeping for a generated memory experiment.
struct MemoryExperiment {
  Circuit circuit;    ///< Encode + rounds of extraction + data readout.
  CssCode code;       ///< The protected block (data qubits 0..n-1).
  unsigned rounds = 0;
  unsigned ancillas_per_round = 0;  ///< = #X stabs + #Z stabs.
  CssBasis basis = CssBasis::kZ;    ///< Preparation + readout basis.

  /// Record-bit index of ancilla `a` in round `r` (measurement order:
  /// round-major ancillas, then the n data bits).
  [[nodiscard]] unsigned ancilla_bit(unsigned round, unsigned a) const {
    return round * ancillas_per_round + a;
  }
  /// Record-bit index of data qubit `q`.
  [[nodiscard]] unsigned data_bit(unsigned q) const {
    return rounds * ancillas_per_round + q;
  }
  /// Extract the final data readout from a measurement record.
  [[nodiscard]] std::uint64_t data_bits(std::uint64_t record) const {
    return (record >> (rounds * ancillas_per_round)) &
           ((1ULL << code.n) - 1);
  }
};

/// How the logical state is prepared.
///
/// `kEncoder` runs the synthesized unitary encoder — faithful to the code's
/// algebra and the right choice for state-injection demos, but the cascade
/// is not fault-tolerant: under circuit-level noise a single fault on the
/// logical-input qubit mid-encoder becomes an undetectable logical flip,
/// so logical error rates scale *linearly* with physical noise and larger
/// distances only add encoder depth.
///
/// `kProduct` prepares the basis product state instead: |0⟩^n for the Z
/// basis (a +1 eigenstate of every Z-check and of Z̄ for any CSS code) and
/// |+⟩^n for the X basis. The first extraction round projects into the
/// code space — the standard memory-experiment construction — and no
/// single fault is a logical operator, so distance buys genuine
/// sub-threshold suppression. Threshold measurements must use this.
enum class PrepStyle : std::uint8_t { kEncoder, kProduct };

/// Build the memory experiment: logical-state preparation (see PrepStyle;
/// for `kEncoder` an H on the logical input selects |+_L⟩ in the X basis),
/// `rounds` rounds of syndrome extraction (X-type checks via
/// H-ancilla/CX-to-data/H, Z-type checks via CX-from-data), ancilla
/// measurement each round, and a final transversal data measurement
/// (preceded by transversal H for the X basis).
[[nodiscard]] MemoryExperiment make_memory_experiment(
    const CssCode& code, unsigned rounds, CssBasis basis = CssBasis::kZ,
    PrepStyle prep = PrepStyle::kEncoder);

/// Decode one shot of the experiment with any `Decoder` built for the
/// experiment's basis: `decode_readout` of the final data readout, i.e. the
/// measured logical value (0 = success). The ancilla history is ignored.
[[nodiscard]] unsigned decode_memory_shot(const MemoryExperiment& experiment,
                                          const Decoder& decoder,
                                          std::uint64_t record);

/// Logical error rate over a batch of records.
[[nodiscard]] double memory_logical_error_rate(
    const MemoryExperiment& experiment, const Decoder& decoder,
    const std::vector<std::uint64_t>& records);

}  // namespace ptsbe::qec

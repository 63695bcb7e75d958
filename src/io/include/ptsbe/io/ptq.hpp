#pragma once

/// \file ptq.hpp
/// \brief The `.ptq` circuit text format — circuits as *data*.
///
/// Every circuit in this codebase used to be hand-built C++; `.ptq` is the
/// ingestion boundary that makes noisy programs portable between tools,
/// job files and the `ptsbe::serve` engine. The format is line-oriented
/// (Stim-style): one operation per line, `#` comments, named channel
/// declarations, and noise-site lines that attach a declared channel after
/// the preceding operation — exactly the `NoisyCircuit` structure
/// `NoiseModel::apply` produces.
///
/// ```
/// ptq 1
/// qubits 3
/// channel g depolarizing 0.01
/// channel ro bit_flip 0.005
/// h 0
/// noise g 0
/// cx 0 1
/// noise g 0
/// noise g 1
/// measure 0
/// noise ro 0
/// ```
///
/// Grammar (tokens are whitespace-separated; every line is one of):
///  - `ptq 1`                      — header, required first line
///  - `qubits <n>`                 — width, required second line
///  - `channel <id> <kind> <params…>` — named channel from the
///    `ptsbe::channels` factory zoo (`depolarizing p`, `depolarizing2 p`,
///    `bit_flip p`, `phase_flip p`, `bit_phase_flip p`,
///    `pauli px py pz`, `amplitude_damping g`, `phase_damping l`,
///    `correlated_xx_zz p`, `thermal_relaxation t t1 t2`,
///    `coherent_overrotation p theta`)
///  - `channel <id> kraus <name> <num_ops> <dim> <re im …>` — raw Kraus
///    form (num_ops · dim² (re, im) pairs, row-major); covers channels the
///    factory zoo cannot express and is what `write_circuit` emits
///  - `<gate> <q…> [<params…>]`    — any gate of `circuit/gates.hpp` by
///    mnemonic (`i x y z h s sdg t tdg sx sxdg sy sydg` · `rx ry rz p`
///    with one angle · `u3` with three · `cx cy cz swap iswap`)
///  - `unitary <name> <k> <q…> <nparams> <params…> <re im …>` — arbitrary
///    k-qubit gate with an explicit 2^k×2^k matrix, unitary to 1e-9
///  - `noise <id> <q…>`            — noise site on the declared channel
///    `<id>`, attached after the most recent operation line (before the
///    circuit when none precedes it)
///  - `measure <q>`                — terminal measurement
///
/// Every number must be finite: `nan`, `inf` and overflowing literals
/// such as `1e999` are rejected at their token.
///
/// Round-trip contract: `parse_circuit(write_circuit(c))` reproduces `c`
/// *exactly* — op names, qubit lists, params, matrices, site order and
/// channel contents compare bit-identical (`programs_equal`). Numbers are
/// printed with 17 significant digits, which IEEE-754 round-trips.
///
/// Malformed input throws `ParseError` carrying the 1-based line and
/// column of the offending token ("7:12: unknown gate 'hh'").

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

#include "ptsbe/common/error.hpp"
#include "ptsbe/noise/noise_model.hpp"

namespace ptsbe::io {

/// Error thrown for malformed `.ptq` input. `what()` is
/// "<source>:<line>:<column>: <message>" (source omitted when empty);
/// line/column are 1-based and point at the offending token.
class ParseError : public runtime_failure {
 public:
  ParseError(const std::string& source, std::size_t line, std::size_t column,
             const std::string& message);

  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  [[nodiscard]] std::size_t column() const noexcept { return column_; }

 private:
  std::size_t line_;
  std::size_t column_;
};

/// Parse `.ptq` text into the noisy program it describes. `source_name`
/// only decorates diagnostics (a file path, "<stdin>", …).
/// \throws ParseError on malformed input.
[[nodiscard]] NoisyCircuit parse_circuit(std::string_view text,
                                         const std::string& source_name = "");

/// Parse the `.ptq` file at `path`.
/// \throws runtime_failure when the file cannot be read; ParseError on
///         malformed content (decorated with `path`).
[[nodiscard]] NoisyCircuit parse_circuit_file(const std::string& path);

/// Serialise `noisy` as `.ptq` text. Channels are emitted in raw Kraus
/// form (one declaration per distinct channel handle), gates by mnemonic
/// when the stored matrix is bit-identical to the gate library's
/// reconstruction and as `unitary` lines otherwise, so the output of a
/// program with unitary gates and finite parameters parses back to an
/// exactly equal program.
/// \throws precondition_error when `noisy`'s sites are not in program
///         order (such programs have no line-oriented representation that
///         preserves site indices).
[[nodiscard]] std::string write_circuit(const NoisyCircuit& noisy);

/// Write `noisy` to `os` (what `write_circuit` builds its string with).
void write_circuit(std::ostream& os, const NoisyCircuit& noisy);

/// Exact structural equality of two noisy programs: width, operation list
/// (kind, name, qubits, params, matrix — bitwise), and site list
/// (after_op, qubits, channel name + Kraus matrices — bitwise). This is
/// the `.ptq` round-trip oracle.
[[nodiscard]] bool programs_equal(const NoisyCircuit& a, const NoisyCircuit& b);

/// Exact structural equality of two coherent circuits (the op-list part of
/// `programs_equal`).
[[nodiscard]] bool circuits_equal(const Circuit& a, const Circuit& b);

}  // namespace ptsbe::io

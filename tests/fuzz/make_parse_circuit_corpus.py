#!/usr/bin/env python3
"""Write the seed corpus of the `.ptq` parser's fuzz harness.

Run from the root of a checkout:

    python3 tests/fuzz/make_parse_circuit_corpus.py

Each file is one `.ptq` text: the example circuits, valid programs that
use every gate mnemonic and channel kind, and the inputs the parser must
refuse with a ParseError (non-finite numbers, a non-unitary `unitary`
line, duplicate targets, out-of-range qubits, `qubits 0` and hostile
Kraus counts). Findings of a fuzzing run are added to the same directory
as further files.
"""

import glob
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "corpus", "parse_circuit")


def ptq(qubits, *lines):
    return "ptq 1\nqubits {}\n{}\n".format(qubits, "\n".join(lines))


def identity(dim):
    """The (re, im) tokens of the dim x dim identity, row-major."""
    return " ".join("1 0" if r == c else "0 0"
                    for r in range(dim) for c in range(dim))


GATES = ptq(
    3,
    "i 0", "x 0", "y 1", "z 2", "h 0", "s 1", "sdg 2", "t 0", "tdg 1",
    "sx 2", "sxdg 0", "sy 1", "sydg 2", "rx 0 0.25", "ry 1 -1.5",
    "rz 2 3.0", "p 0 0.125", "u3 1 0.3 -1.1 2.2", "cx 0 1", "cy 1 2",
    "cz 2 0", "swap 0 2", "iswap 1 0",
    "unitary mine 1 2 1 0.5 0 0 1 0 1 0 0 0",
    "measure 2", "measure 0")

CHANNELS = ptq(
    2,
    "channel a depolarizing 0.01", "channel b depolarizing2 0.02",
    "channel c bit_flip 0.1", "channel d phase_flip 0.1",
    "channel e bit_phase_flip 0.1", "channel f pauli 0.1 0.05 0.02",
    "channel g amplitude_damping 0.2", "channel h phase_damping 0.3",
    "channel k correlated_xx_zz 0.04",
    "channel m thermal_relaxation 1 50 70",
    "channel n coherent_overrotation 0.1 0.2",
    "channel r kraus mine 2 2 0.6 0 0 0 0 0 0.6 0 0 0 0.8 0 0.8 0 0 0",
    "noise c 0", "h 0", "noise a 0", "cx 0 1", "noise b 0 1",
    "noise k 1 0", "noise d 1", "noise e 0", "noise f 1", "noise g 0",
    "noise h 1", "noise m 0", "noise n 1", "noise r 0",
    "measure 0", "noise c 0", "measure 1")

CORPUS = {
    "valid_gates.ptq": GATES,
    "valid_channels.ptq": CHANNELS,
    "valid_empty_circuit.ptq": ptq(1),
    "valid_comments.ptq": "# lead\nptq 1  # header\nqubits 1\n\nh 0 # tail\n",
    # Non-finite numbers.
    "nan_gate_parameter.ptq": ptq(2, "rx 0 nan"),
    "inf_gate_parameter.ptq": ptq(2, "rz 1 -inf"),
    "overflowing_unitary_entry.ptq": ptq(
        1, "unitary u 1 0 0 1e999 0 0 0 0 0 1 0"),
    "nan_kraus_entry.ptq": ptq(1, "channel k kraus kk 1 2 nan 0 0 0 0 0 1 0"),
    "nan_channel_parameter.ptq": ptq(1, "channel g depolarizing nan"),
    "nan_unitary_parameter.ptq": ptq(1, "unitary u 1 0 1 nan 1 0 0 0 0 0 1 0"),
    # A `unitary` line whose matrix is not unitary.
    "non_unitary_unitary.ptq": ptq(1, "unitary u 1 0 0 2 0 0 0 0 0 2 0"),
    # Duplicate targets.
    "duplicate_gate_qubit.ptq": ptq(2, "cx 0 0"),
    "duplicate_unitary_qubit.ptq": ptq(2, "unitary u 2 1 1 0 " + identity(4)),
    "duplicate_noise_qubit.ptq": ptq(
        2, "channel g depolarizing2 0.02", "h 0", "noise g 0 0"),
    "duplicate_channel_id.ptq": ptq(
        1, "channel g bit_flip 0.1", "channel g bit_flip 0.2"),
    # Out-of-range qubits.
    "gate_qubit_out_of_range.ptq": ptq(2, "h 5"),
    "measure_qubit_out_of_range.ptq": ptq(2, "measure 9"),
    "noise_qubit_out_of_range.ptq": ptq(
        2, "channel g bit_flip 0.1", "noise g 7"),
    "huge_qubit_index.ptq": ptq(2, "h 18446744073709551616"),
    # Widths.
    "zero_qubits.ptq": ptq(0),
    "zero_qubits_with_gate.ptq": ptq(0, "h 0"),
    "huge_qubit_count.ptq": ptq(4294967296, "h 0"),
    "negative_qubit_count.ptq": ptq(-1),
    # Hostile Kraus counts: no allocation may follow an unchecked count.
    "kraus_huge_op_count.ptq": ptq(1, "channel k kraus kk 4294967295 2 1 0"),
    "kraus_huge_dimension.ptq": ptq(1, "channel k kraus kk 1 1048576 1 0"),
    "kraus_zero_ops.ptq": ptq(1, "channel k kraus kk 0 2"),
    "kraus_zero_dimension.ptq": ptq(1, "channel k kraus kk 1 0"),
    "kraus_odd_dimension.ptq": ptq(
        1, "channel k kraus kk 1 3 " + " ".join(["1 0"] * 9)),
    "kraus_three_qubits.ptq": ptq(3, "channel k kraus kk 1 8 " + identity(8)),
    "kraus_not_trace_preserving.ptq": ptq(
        1, "channel k kraus kk 1 2 2 0 0 0 0 0 2 0"),
    "unitary_arity_cap.ptq": ptq(2, "unitary g 16 0"),
    "unitary_short_line.ptq": ptq(2, "unitary g 1 0 0 1 0"),
    # Structure.
    "missing_header.ptq": "qubits 2\nh 0\n",
    "unsupported_version.ptq": "ptq 9\nqubits 2\n",
    "empty.ptq": "",
    "only_comments.ptq": "   \n# only a comment\n",
    "dangling_noise_ref.ptq": ptq(2, "h 0", "noise gg 0"),
    "trailing_token.ptq": ptq(2, "measure 0 0"),
    "binary_bytes.ptq": "ptq 1\nqubits 2\nh \x00\xff 0\n",
}


def main():
    os.makedirs(OUT, exist_ok=True)
    corpus = dict(CORPUS)
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "circuits",
                                              "*.ptq"))):
        with open(path, encoding="utf-8") as f:
            corpus["example_" + os.path.basename(path)] = f.read()
    for name, text in sorted(corpus.items()):
        with open(os.path.join(OUT, name), "w", encoding="latin-1",
                  newline="") as f:
            f.write(text)
    print(f"wrote {len(corpus)} inputs to {OUT}")


if __name__ == "__main__":
    main()

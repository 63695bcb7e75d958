#!/usr/bin/env python3
"""Write the seed corpus of the batch-block decoder's fuzz harness.

Run from the root of a checkout:

    python3 tests/fuzz/make_decode_block_corpus.py

Each file is one or more PTSB batch blocks (no dataset header): the valid
layouts of format v2 and v3, the hostile length fields the reader tests
use, and the hostile run blocks format v3 added. Findings of a fuzzing run
are added to the same directory as further files.
"""

import os
import struct

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "corpus", "decode_block")
RUNS = 1 << 63
MAX_BLOCK_RECORDS = 1 << 28
U64_MAX = (1 << 64) - 1


def words(*values):
    return b"".join(struct.pack("<Q", v) for v in values)


def head(spec_index=0, nominal=0.25, realized=0.25, shots=0, branches=()):
    """The five fixed fields, then the (site, branch) pairs."""
    pairs = [v for pair in branches for v in pair]
    return (struct.pack("<Qdd", spec_index, nominal, realized) +
            words(shots, len(branches), *pairs))


def plain(records, **kw):
    return head(shots=len(records), **kw) + words(len(records), *records)


def runs(pairs, shots=None, **kw):
    flat = [v for pair in pairs for v in pair]
    total = sum(c for _, c in pairs) if shots is None else shots
    return head(shots=total & U64_MAX, **kw) + words(RUNS | len(pairs), *flat)


CORPUS = {
    # Valid blocks. A v2 block is a v3 plain block.
    "v2_block.bin": plain([3, 1, 4, 1, 5], branches=[(2, 1), (7, 3)]),
    "v3_plain_distinct.bin": plain(list(range(0, 40, 3)), spec_index=4),
    "v3_runs_unsorted.bin": runs([(5, 2), (3, 3), (5, 3)], branches=[(1, 2)]),
    "v3_runs_sorted.bin": runs([(0, 1000), (3, 500), (7, 24)]),
    "unrealizable.bin": plain([], nominal=0.125, realized=0.0,
                              branches=[(3, 2)]),
    "three_blocks.bin": (plain([9, 9]) + runs([(1, 7), (2, 9)]) +
                         plain([], realized=0.0)),
    "empty.bin": b"",
    # Hostile length fields of the reader tests: 2^64-1 branches, 2^36
    # records, both far past the bytes.
    "hostile_branches.bin": words(0, 0, 0, 4, U64_MAX),
    "hostile_records.bin": words(0, 0, 0, 4, 0, 1 << 36),
    # Hostile run blocks.
    "runs_zero_count.bin": runs([(7, 3), (8, 0)]),
    "runs_overflowing_sum.bin": runs([(7, U64_MAX), (8, 2)]),
    "runs_above_max_records.bin": runs([(1, MAX_BLOCK_RECORDS // 2),
                                        (2, MAX_BLOCK_RECORDS // 2), (3, 1)]),
    "runs_more_than_bytes.bin": head(shots=4) + words(RUNS | (1 << 40)),
    "runs_half_a_run.bin": head(shots=4) + words(RUNS | 1, 7),
}


def main():
    os.makedirs(OUT, exist_ok=True)
    for name, data in sorted(CORPUS.items()):
        with open(os.path.join(OUT, name), "wb") as f:
            f.write(data)
    print(f"wrote {len(CORPUS)} inputs to {OUT}")


if __name__ == "__main__":
    main()

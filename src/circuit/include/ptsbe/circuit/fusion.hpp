#pragma once

/// \file fusion.hpp
/// \brief Gate-fusion pass over the circuit IR.
///
/// Trajectory preparation cost is dominated by full sweeps over the
/// exponentially large state, one per gate. Runs of adjacent gates whose
/// supports coincide can be collapsed into a single small matrix *before*
/// the sweep, trading cheap 2×2/4×4 products for expensive O(2^n) passes.
/// The pass fuses
///   - runs of single-qubit gates on the same qubit,
///   - runs of two-qubit gates on the same (unordered) pair,
///   - single-qubit gates into an adjacent two-qubit gate containing their
///     qubit (in either direction),
/// where "adjacent" means no intervening operation touches the merged
/// support. Gates only commute past operations on disjoint qubits, which the
/// last-writer bookkeeping below tracks exactly.
///
/// Fusion must never move work across a point where something *observes or
/// perturbs* the state mid-circuit: measurement operations, and — in the
/// noisy-program setting — noise sites where a trajectory takes a branch
/// other than the identity. Callers mark those boundaries via the
/// `barrier_after` predicate or by fusing each run between them on its
/// own; `build_exec_plan` (ptsbe/core/exec_plan.hpp) fuses the gates
/// between sites, and beside them windows across sites whose default
/// branch is the identity, which a trajectory runs only where it takes
/// each of those branches. So fused preparation is mathematically
/// equivalent to the unfused sweep, trajectory by trajectory (bitwise only
/// up to floating-point reassociation of the gate products).

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "ptsbe/circuit/circuit.hpp"

namespace ptsbe {

/// True when there is a fusion barrier immediately after original op `i`
/// (e.g. a noise site fires there). Null predicate = no extra barriers.
using BarrierAfterFn = std::function<bool(std::size_t)>;

/// Fuse a run of gate operations containing no barriers. Every element of
/// `run` must be a kGate op. The returned list applied in order is
/// mathematically identical to `run` applied in order, with fused ops named
/// "fused" and carrying no params.
[[nodiscard]] std::vector<Operation> fuse_gate_run(
    std::span<const Operation> run);

/// Fuse an entire circuit. Measurement ops are kept verbatim and act as
/// barriers, as does every index where `barrier_after(i)` is true (indices
/// refer to the *input* circuit's op list).
[[nodiscard]] Circuit fuse_circuit(const Circuit& circuit,
                                   const BarrierAfterFn& barrier_after = {});

}  // namespace ptsbe

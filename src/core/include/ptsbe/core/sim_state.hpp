#pragma once

/// \file sim_state.hpp
/// \brief Type-erased, forkable simulator state.
///
/// Batched Execution's plan walk (ptsbe/core/prefix_scheduler.hpp) prepares
/// every trajectory on a `SimState` and, under the shared-prefix schedule,
/// snapshots it at every fork point of the spec trie. `SimState` is the
/// minimal contract that makes that possible without the walk knowing which
/// representation (statevector, density matrix, MPS, stabilizer) it is
/// driving: the preparation and sampling operations of one trajectory, plus
/// `clone()`.
///
/// Snapshots are plain deep copies — O(2^n) for the dense representations,
/// O(n·χ²) for MPS and one gate list for the stabilizer — i.e. at most the
/// cost of roughly *one* gate sweep, which is exactly what forking saves
/// many of.
///
/// Threading: a `SimState` instance is **not** thread-safe and is never
/// shared. The multi-threaded walk gives every executor task exclusive
/// ownership of its state (the `SimStatePtr` moves into the task closure);
/// `clone()` at a fork point is the only cross-task data flow, and it
/// happens entirely on the spawning worker before the child task is
/// published. `clone()` must be a bitwise-faithful deep copy — the clone
/// and the original must evolve through identical floating-point
/// trajectories, which is what makes records thread-count-invariant.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ptsbe/common/error.hpp"
#include "ptsbe/common/inverse_cdf.hpp"
#include "ptsbe/common/rng.hpp"
#include "ptsbe/kernels/kernel_set.hpp"
#include "ptsbe/linalg/matrix.hpp"
#include "ptsbe/noise/kraus.hpp"

namespace ptsbe {

/// One forkable simulation state, positioned at |0…0⟩ on construction.
/// Methods mirror the state-backend concept of the concrete
/// representations.
class SimState {
 public:
  virtual ~SimState() = default;

  /// Deep-copy snapshot. The clone and the original evolve independently.
  [[nodiscard]] virtual std::unique_ptr<SimState> clone() const = 0;

  /// Apply a unitary on `qubits` (first listed = LSB of the matrix).
  virtual void apply_gate(const Matrix& matrix,
                          std::span<const unsigned> qubits) = 0;

  /// True when this state consumes classified `kernels::PreparedGate` runs
  /// directly (the amplitude representations). The plan walk uses this to
  /// swap per-step `apply_gate` calls for one `apply_prepared_run` per
  /// straight-line stretch: the gates between two forks (a fused window's
  /// gates where the range takes its default branches), together with the
  /// chosen unitaries of the unitary-mixture sites among them, up to the
  /// next general-Kraus site or gate wider than two qubits.
  [[nodiscard]] virtual bool supports_prepared_runs() const { return false; }

  /// Apply a span of prepared gates in one batched (on the statevector,
  /// cache-blocked) pass. Only valid when `supports_prepared_runs()` is
  /// true; the result is bit-identical to calling `apply_gate` gate by
  /// gate, so records cannot depend on which path the walk took.
  virtual void apply_prepared_run(std::span<const kernels::PreparedGate>) {
    throw precondition_error(
        "apply_prepared_run on a state without prepared-run support");
  }

  /// Apply the chosen Kraus operators of a run of general-Kraus sites in
  /// order, renormalising after each: p[i] = ‖K_i|ψ⟩‖², site i's realised
  /// probability at the state the earlier sites left (p.size() ≥
  /// sites.size()). Stops after the first p[i] below `cut` or at most
  /// 1e-300 and returns the number of sites applied. When the last p is at
  /// most 1e-300 the state is left unnormalised and the caller must discard
  /// it. The statevector runs a diagonal K's site as one fused sweep; the
  /// other representations apply their one-site `apply_kraus_branch` in
  /// turn. \throws precondition_error when a norm is not finite.
  virtual std::size_t apply_kraus_branches(std::span<const KrausBranch> sites,
                                           double cut,
                                           std::span<double> p) = 0;

  /// True when this state samples through the splittable in-place sampler
  /// (`records_from_exponentials`) — the dense representations.
  [[nodiscard]] virtual bool samples_in_place() const { return false; }

  /// Bulk-draw `count` records of the `measured` qubits: bit i of a record
  /// is the outcome of measured[i]; empty `measured` records every qubit,
  /// qubit q in bit q. The default is the dense states' in-place sampler,
  /// which draws `count` + 1 exponentials (none when `count` is 0); MPS and
  /// the stabilizer override it, and may touch the representation.
  [[nodiscard]] virtual std::vector<std::uint64_t> sample_records(
      std::size_t count, RngStream& rng, std::span<const unsigned> measured) {
    std::vector<std::uint64_t> records(count);
    if (count == 0) return records;
    kernels::draw_exponentials(rng, records);
    records_from_exponentials(records, rng.exponential(), measured);
    return records;
  }

  /// Turn `words` — the exponentials E_0 … E_{m-1} of m draws, bit-cast —
  /// and E_m (`last`) into m records of the `measured` qubits, in place
  /// (`exponentials_to_records`, ptsbe/common/inverse_cdf.hpp). The records
  /// equal the representation's `sample_shots` over the same draws, reduced
  /// to `measured`. Only valid when `samples_in_place()`; read-only on the
  /// state, so several leaves may call it on one state concurrently.
  virtual void records_from_exponentials(
      std::span<std::uint64_t> /*words*/, double /*last*/,
      std::span<const unsigned> /*measured*/) const {
    throw precondition_error(
        "records_from_exponentials on a state without in-place sampling");
  }
};

using SimStatePtr = std::unique_ptr<SimState>;

}  // namespace ptsbe

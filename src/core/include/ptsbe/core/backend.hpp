#pragma once

/// \file backend.hpp
/// \brief Unified simulator-backend interface and string-keyed registry.
///
/// Batched Execution used to hard-code the statevector and MPS simulators.
/// This header is the seam that removes that coupling: a `Backend` tells
/// Batched Execution how to prepare and bulk-sample the pre-sampled
/// trajectories of a noisy program, and a `BackendRegistry` maps stable
/// string names to backend factories so execution options, CLIs, config
/// files — and future sharded / asynchronous / GPU backends — select
/// simulators by name.
///
/// A backend implements one of two halves of the seam:
///   - `make_state` + `make_plan` (forkable states): Batched Execution walks
///     the plan on the state under either schedule and samples the leaves
///     itself (ptsbe/core/prefix_scheduler.hpp);
///   - `run` (states that cannot fork): Batched Execution calls it once per
///     spec.
///
/// Built-in backends (registered at startup):
///   - "statevector"  dense 2^n amplitudes (CUDA-Q `nvidia` analogue)
///   - "densmat"      exact density matrix run per-trajectory (<= 13 qubits)
///   - "stabilizer"   CHP tableau; Clifford gates + Pauli mixtures only
///   - "mps"          matrix-product-state / TEBD (CUDA-Q `tensornet`
///                    analogue); "tensornet" is accepted as an alias
///
/// Both halves take the *noisy program* (`NoisyCircuit`, which owns the
/// coherent `Circuit`), because a spec's branch indices are only meaningful
/// against the program's noise sites.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ptsbe/common/rng.hpp"
#include "ptsbe/core/exec_plan.hpp"
#include "ptsbe/core/sim_state.hpp"
#include "ptsbe/core/trajectory_spec.hpp"
#include "ptsbe/tensornet/mps.hpp"

namespace ptsbe {

/// Tuning knobs a backend may consume at construction time. Unknown fields
/// are ignored by backends they do not apply to.
struct BackendConfig {
  /// MPS truncation policy ("mps" backend only).
  MpsConfig mps;
  /// Run the gate-fusion pass over every barrier-free segment of the
  /// preparation sweep (amplitude backends). Fusion never crosses a noise
  /// site or measurement, so fused preparation is equivalent to the unfused
  /// sweep up to floating-point reassociation of the gate products.
  bool fuse_gates = false;
};

/// Everything one backend invocation produces for one trajectory spec.
struct ShotResult {
  /// Measurement records: bit i of a record is the outcome of the i-th
  /// measured qubit (program order); when the circuit has no measure ops,
  /// the record is the full n-bit basis-state index.
  std::vector<std::uint64_t> records;
  /// Realised joint probability of the trajectory (product of nominal
  /// branch probabilities for unitary mixtures, of realised ⟨ψ|K†K|ψ⟩ for
  /// general channels). 0 marks an unrealizable spec; `records` is then
  /// empty.
  double realized_probability = 1.0;
  /// Wall-clock split: O(2^n)-ish state preparation vs bulk sampling.
  double prepare_seconds = 0.0;
  double sample_seconds = 0.0;
};

/// One simulator backend. Implementations are immutable after construction
/// and their const methods are re-entrant: Batched Execution shares a
/// single instance across all TrajectoryExecutor workers.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Registry name this backend was constructed under ("statevector"…).
  [[nodiscard]] virtual const std::string& name() const noexcept = 0;

  /// True when this backend can execute `noisy` (gate set, channel class
  /// and qubit-count restrictions). Batched Execution throws
  /// precondition_error on unsupported programs; call this first to route
  /// instead of failing.
  [[nodiscard]] virtual bool supports(const NoisyCircuit& noisy) const = 0;

  /// Run-only backends (states that cannot fork): prepare the trajectory
  /// selected by `spec` exactly once (sites not listed take their channel's
  /// default branch) and draw `shots` measurement records in bulk from the
  /// prepared state, consuming randomness only from `rng`. Batched
  /// Execution passes `spec.shots`. Splitting one spec's budget across
  /// several run() calls would change its records (each call draws its own
  /// sorted sample). The default throws precondition_error: a backend with
  /// forkable states runs through `be::execute`, which walks its plan.
  [[nodiscard]] virtual ShotResult run(const NoisyCircuit& noisy,
                                       const TrajectorySpec& spec,
                                       std::uint64_t shots,
                                       RngStream& rng) const;

  /// True when `make_state` returns forkable states — the O(1) capability
  /// probe Batched Execution routes on (constructing a throwaway state just
  /// to test for nullptr could transiently allocate 2^n amplitudes).
  [[nodiscard]] virtual bool can_fork_states() const noexcept {
    return false;
  }

  /// Fresh forkable |0…0⟩ state for Batched Execution's plan walk (both
  /// schedules), or nullptr when this backend's state cannot be
  /// snapshotted (stabilizer), which then runs every spec through `run`.
  [[nodiscard]] virtual SimStatePtr make_state(unsigned num_qubits) const {
    (void)num_qubits;
    return nullptr;
  }

  /// The execution plan Batched Execution walks on `make_state`'s states
  /// (this backend's gate-fusion setting applied).
  [[nodiscard]] virtual ExecPlan make_plan(const NoisyCircuit& noisy) const {
    return build_exec_plan(noisy, false);
  }
};

using BackendPtr = std::unique_ptr<Backend>;

/// Factory signature stored in the registry.
using BackendFactory = std::function<BackendPtr(const BackendConfig&)>;

/// Process-wide name → factory map. The four built-ins are registered on
/// first access; plugins may add more at any time before use. Registration
/// and lookup are thread-safe.
class BackendRegistry {
 public:
  /// The global registry.
  static BackendRegistry& instance();

  /// Register `factory` under `name`.
  /// \throws precondition_error if `name` is empty or already taken.
  void register_backend(const std::string& name, BackendFactory factory);

  /// True when `name` resolves to a factory.
  [[nodiscard]] bool contains(const std::string& name) const;

  /// Construct the backend registered under `name`.
  /// \throws precondition_error for unknown names (the message lists the
  ///         registered names).
  [[nodiscard]] BackendPtr make(const std::string& name,
                                const BackendConfig& config = {}) const;

  /// All registered names, sorted (aliases included).
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  BackendRegistry();

  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// Convenience: `BackendRegistry::instance().make(name, config)`.
[[nodiscard]] BackendPtr make_backend(const std::string& name,
                                      const BackendConfig& config = {});

}  // namespace ptsbe

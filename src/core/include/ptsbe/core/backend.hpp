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
/// A backend supplies forkable states (`make_state`) and the execution plan
/// (`make_plan`) of a noisy program; Batched Execution walks the plan on the
/// states under either schedule and samples the leaves itself
/// (ptsbe/core/prefix_scheduler.hpp). The plan takes the *noisy program*
/// (`NoisyCircuit`, which owns the coherent `Circuit`), because a spec's
/// branch indices are only meaningful against the program's noise sites.
///
/// Built-in backends (registered at startup):
///   - "statevector"  dense 2^n amplitudes (CUDA-Q `nvidia` analogue)
///   - "densmat"      exact density matrix run per-trajectory (<= 13 qubits)
///   - "stabilizer"   Pauli-frame sampler over each trajectory's Clifford
///                    circuit; Clifford gates + Pauli mixtures only
///   - "mps"          matrix-product-state / TEBD (CUDA-Q `tensornet`
///                    analogue); "tensornet" is accepted as an alias

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ptsbe/core/exec_plan.hpp"
#include "ptsbe/core/registry.hpp"
#include "ptsbe/core/sim_state.hpp"
#include "ptsbe/tensornet/mps.hpp"

namespace ptsbe {

/// Tuning knobs a backend may consume at construction time. Unknown fields
/// are ignored by backends they do not apply to.
struct BackendConfig {
  /// MPS truncation policy ("mps" backend only).
  MpsConfig mps;
  /// Run the gate-fusion pass over the preparation sweep (amplitude
  /// backends): over every gate segment between sites and measurements,
  /// and over windows that span noise sites whose default branch is the
  /// identity, which a spec runs fused where it takes each of those
  /// branches (ptsbe/core/exec_plan.hpp). Fused preparation is equivalent
  /// to the unfused sweep, trajectory by trajectory, up to floating-point
  /// reassociation of the gate products.
  bool fuse_gates = false;
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

  /// Fresh forkable |0…0⟩ state for Batched Execution's plan walk (both
  /// schedules).
  [[nodiscard]] virtual SimStatePtr make_state(unsigned num_qubits) const = 0;

  /// The execution plan Batched Execution walks on `make_state`'s states.
  /// The default is the unfused plan; the amplitude backends apply their
  /// gate-fusion setting.
  [[nodiscard]] virtual ExecPlan make_plan(const NoisyCircuit& noisy) const {
    return build_exec_plan(noisy, false);
  }
};

using BackendPtr = std::unique_ptr<Backend>;

/// Factory signature stored in the registry.
using BackendFactory = std::function<BackendPtr(const BackendConfig&)>;

/// Process-wide backend name → factory map (aliases included). The four
/// built-ins are registered on first access; plugins may `add` more at any
/// time before use.
class BackendRegistry final : public Registry<BackendFactory> {
 public:
  /// The global registry.
  static BackendRegistry& instance();

  /// Construct the backend registered under `name`.
  /// \throws precondition_error for unknown names (the message lists the
  ///         registered names).
  [[nodiscard]] BackendPtr make(const std::string& name,
                                const BackendConfig& config = {}) const {
    return find(name)(config);
  }

 private:
  BackendRegistry();
};

/// Convenience: `BackendRegistry::instance().make(name, config)`.
[[nodiscard]] BackendPtr make_backend(const std::string& name,
                                      const BackendConfig& config = {});

}  // namespace ptsbe

#pragma once

/// \file exec_plan.hpp
/// \brief The prepared-execution plan Batched Execution walks on every backend.
///
/// A `NoisyCircuit` interleaves deterministic gate ops with noise sites
/// (`sites_after` buckets). An `ExecPlan` flattens that structure into one
/// linear step list — gate steps and site (branch-decision) steps in program
/// order — and optionally runs the gate-fusion pass over every deterministic
/// segment *between* decision points. Noise sites and measurements are hard
/// fusion barriers: fusing across one would change where the channel
/// observes the state.
///
/// Batched Execution prepares every trajectory through one walk of the plan
/// (`spawn_plan_walks`, ptsbe/core/prefix_scheduler.hpp). The shared-prefix
/// schedule walks each common prefix once and forks at deviating site
/// steps; the independent schedule walks one spec at a time and never
/// forks. Both apply the *identical* matrix sequence per trajectory — fused
/// or not — so their prepared states, realised probabilities and sampled
/// records are bit-for-bit identical.

#include <cstddef>
#include <vector>

#include "ptsbe/core/trajectory_spec.hpp"
#include "ptsbe/kernels/kernel_set.hpp"
#include "ptsbe/linalg/matrix.hpp"
#include "ptsbe/noise/noise_model.hpp"

namespace ptsbe {

/// One step of an execution plan.
struct PlanStep {
  /// True: apply `matrix` on `qubits`. False: decide a branch for noise
  /// site `site` (index into NoisyCircuit::sites()).
  bool is_gate = true;
  Matrix matrix;
  std::vector<unsigned> qubits;
  std::size_t site = 0;
};

/// Linearised (optionally fused) preparation recipe for one noisy program.
struct ExecPlan {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// A barrier-free stretch of consecutive 1-/2-qubit gate steps,
  /// pre-classified into flat `PreparedGate`s once at plan-build time so
  /// every trajectory walk skips per-step matrix indirection and gate
  /// classification. `gates.size()` plan steps starting at `first_step`
  /// are covered. A walk consumes whole runs: it appends each to its
  /// pending gate span, which can continue across unitary-mixture sites
  /// into the next run (see `run_subtree`, core/prefix_scheduler.cpp).
  struct PreparedRun {
    std::size_t first_step = 0;
    std::vector<kernels::PreparedGate> gates;
  };

  std::vector<PlanStep> steps;
  std::vector<PreparedRun> prepared_runs;
  /// Index into `prepared_runs` of the run starting at each step
  /// (`npos` when no run starts there). Same length as `steps`.
  std::vector<std::size_t> run_at_step;

  /// Run starting exactly at `step`, or npos. Walkers enter plans only at
  /// step 0 or just after a site step, which is where runs begin.
  [[nodiscard]] std::size_t run_starting_at(std::size_t step) const {
    return step < run_at_step.size() ? run_at_step[step] : npos;
  }

  /// Gate sweeps per trajectory before fusion (diagnostics for the bench).
  std::size_t unfused_gate_count = 0;
  /// Gate sweeps per trajectory in `steps`.
  std::size_t gate_count = 0;
  /// Decision steps (== NoisyCircuit::num_sites()).
  std::size_t site_count = 0;
};

/// Build the plan for `noisy`; `fuse_gates` runs the fusion pass over every
/// barrier-free gate segment.
[[nodiscard]] ExecPlan build_exec_plan(const NoisyCircuit& noisy,
                                       bool fuse_gates);

/// Dense site → branch assignment for `spec` (sites the spec does not list
/// take their channel's default branch).
/// \throws precondition_error when a spec entry is out of range for `noisy`.
[[nodiscard]] std::vector<std::size_t> full_assignment(
    const NoisyCircuit& noisy, const TrajectorySpec& spec);

}  // namespace ptsbe

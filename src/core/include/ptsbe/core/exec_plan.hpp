#pragma once

/// \file exec_plan.hpp
/// \brief The prepared-execution plan Batched Execution walks on every backend.
///
/// A `NoisyCircuit` interleaves deterministic gate ops with noise sites
/// (`sites_after` buckets). An `ExecPlan` flattens that structure into one
/// linear step list — gate steps and site (branch-decision) steps in program
/// order — and optionally runs the gate-fusion pass over every deterministic
/// segment *between* decision points, so a step list never moves a gate
/// across a site or a measurement.
///
/// Fusion across sites happens beside the steps, in windows. With
/// `fuse_gates` on, each stretch of steps between barriers is cut into
/// windows of about `ExecPlan::kWindowGates` gates, and each window keeps
/// the fusion of its gates as if its sites were not there. That is what a
/// walk applies when every spec of its range takes the default branch at
/// every site of the window, a branch that is then the identity. Barriers
/// are general-Kraus sites, sites whose default branch is not the identity,
/// measurements and gates wider than two qubits. A range where some spec
/// leaves a default branch walks the window's steps instead and forks at its
/// sites.
///
/// Batched Execution prepares every trajectory through one walk of the plan
/// (`spawn_plan_walks`, ptsbe/core/prefix_scheduler.hpp). The shared-prefix
/// schedule walks each common prefix once and forks at deviating site
/// steps; the independent schedule walks one spec at a time and never
/// forks. A spec runs a window fused exactly when its own branches are all
/// default there, on both schedules, so both apply the *identical* matrix
/// sequence per trajectory and their prepared states, realised
/// probabilities and sampled records are bit-for-bit identical.

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
  /// A gate step on at most two qubits, classified once at plan-build time:
  /// what a walk on a state with prepared runs applies for it.
  kernels::PreparedGate prepared;
};

/// Linearised (optionally fused) preparation recipe for one noisy program.
struct ExecPlan {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Gates a fused plan's window holds before it closes at its next
  /// site-to-gate boundary. Chosen by measurement on the 20-qubit
  /// prep-bound brickwork (CHANGES.md): longer windows fuse more, shorter
  /// ones leave fewer gates unfused around a spec's few errors.
  static constexpr std::size_t kWindowGates = 48;

  /// A stretch of steps [first_step, end_step) that a walk on a state with
  /// prepared runs covers with `gates` in one append, when every spec of
  /// its range takes the default branch at each of `sites`. A run without
  /// sites is a stretch of 1-/2-qubit gate steps, and `gates` are theirs.
  /// A run with sites is a window of a fused plan: its steps are 1-/2-qubit
  /// gate steps and sites whose default branch is the identity, and `gates`
  /// fuse its gate steps' matrices across those sites. A range where some
  /// spec leaves a default branch walks the steps instead (see
  /// `run_subtree`, core/prefix_scheduler.cpp).
  struct PreparedRun {
    std::size_t first_step = 0;
    std::size_t end_step = 0;
    /// The run's site steps' sites, in step order.
    std::vector<std::size_t> sites;
    std::vector<kernels::PreparedGate> gates;
  };

  std::vector<PlanStep> steps;
  /// Every run, in step order; no two overlap.
  std::vector<PreparedRun> prepared_runs;
  /// Index into `prepared_runs` of the run starting at each step
  /// (`npos` when no run starts there). Same length as `steps`.
  std::vector<std::size_t> run_at_step;

  /// Run starting exactly at `step`, or npos.
  [[nodiscard]] std::size_t run_starting_at(std::size_t step) const {
    return step < run_at_step.size() ? run_at_step[step] : npos;
  }

  /// Gate sweeps per trajectory before fusion (diagnostics for the bench).
  std::size_t unfused_gate_count = 0;
  /// Gate sweeps of a walk that takes every default branch: the runs'
  /// gates and the gate steps no run covers.
  std::size_t gate_count = 0;
  /// Decision steps (== NoisyCircuit::num_sites()).
  std::size_t site_count = 0;
};

/// Build the plan for `noisy`; `fuse_gates` runs the fusion pass over every
/// gate segment between sites and over every window.
[[nodiscard]] ExecPlan build_exec_plan(const NoisyCircuit& noisy,
                                       bool fuse_gates);

/// Dense site → branch assignment for `spec` (sites the spec does not list
/// take their channel's default branch).
/// \throws precondition_error when a spec entry is out of range for `noisy`.
[[nodiscard]] std::vector<std::size_t> full_assignment(
    const NoisyCircuit& noisy, const TrajectorySpec& spec);

}  // namespace ptsbe

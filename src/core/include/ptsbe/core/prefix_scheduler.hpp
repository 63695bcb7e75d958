#pragma once

/// \file prefix_scheduler.hpp
/// \brief Shared-prefix trajectory scheduler (work-stealing parallel DFS).
///
/// Pre-sampled trajectories of one noisy program are *almost identical*:
/// they share the coherent circuit and differ only in a handful of sampled
/// noise branches. The independent schedule ignores that structure and
/// re-prepares every trajectory from |0…0⟩. This scheduler instead views
/// the spec set as a trie over the per-site branch decisions interleaved
/// with the circuit's gate steps (the ExecPlan): every shared prefix is
/// simulated exactly once, and the state is forked (`SimState::clone`) only
/// where two trajectories first deviate.
///
/// Parallelism: fork points are task-spawn points. The walk starts as one
/// root task on the `TrajectoryExecutor`; where the sorted group splits
/// into k branch runs, the walking worker snapshots the pre-branch state
/// k−1 times, spawns one task per earlier run, and continues the last run
/// in place. Each task exclusively owns its `SimState` (per-thread state
/// ownership — states are never shared across tasks while they change; a
/// finished leaf's state is only read, by its sampling chunks), so disjoint
/// trie subtrees execute concurrently with no synchronisation beyond the
/// spawn.
/// An idle worker steals the *oldest* pending task — the shallowest, and
/// therefore largest, subtree.
///
/// Reproducibility contract: preparation consumes no randomness, and each
/// leaf hands its state to the leaf sampler the independent schedule uses
/// (ptsbe/core/leaf_sampler.hpp), which draws from the same per-trajectory
/// Philox substream — so records, realised probabilities and therefore
/// every downstream estimate and dataset byte are **bit-for-bit
/// identical** between the two schedules *and across every thread count*
/// (see tests/test_scheduler.cpp). Only completion order depends on
/// scheduling.
///
/// Memory: pending subtree tasks each hold one state snapshot. LIFO
/// self-scheduling keeps a worker on its current root-to-leaf path, so the
/// live-snapshot count tracks (fork depth + stolen subtrees), not the whole
/// frontier.

#include <cstddef>
#include <span>
#include <vector>

#include "ptsbe/core/backend.hpp"
#include "ptsbe/core/leaf_sampler.hpp"
#include "ptsbe/core/trajectory_executor.hpp"

namespace ptsbe::be {

/// Seed the shared-prefix walk over the trajectories selected by `order`
/// (indices into the spec set, sorted lexicographically by their dense
/// site→branch `assignments`) onto `executor` as one root task; forks spawn
/// further tasks. Call `executor.drain(...)` afterwards to run the walk.
/// Every leaf hands its prepared state to `leaves`, the same leaf sampler
/// the independent schedule uses, so spec t samples from
/// `master.substream(t)` and one batch is emitted per spec. Each task adds
/// its preparation wall-clock (gate sweeps, branch applications, forks —
/// sampling excluded) to its worker's `leaves.accum(worker)` slot.
///
/// Every argument must outlive the drain. Preconditions: the backend can
/// fork states, and `order` is sorted so specs agreeing on every site up to
/// any depth are contiguous.
void spawn_shared_prefix(TrajectoryExecutor& executor, const Backend& backend,
                         const NoisyCircuit& noisy, const ExecPlan& plan,
                         const std::vector<std::vector<std::size_t>>& assignments,
                         std::span<const std::size_t> order,
                         LeafSampler& leaves);

/// Comparator-friendly helper: dense assignments for every spec, indexed
/// like `specs`.
[[nodiscard]] std::vector<std::vector<std::size_t>> all_assignments(
    const NoisyCircuit& noisy, const std::vector<TrajectorySpec>& specs);

}  // namespace ptsbe::be

#pragma once

/// \file prefix_scheduler.hpp
/// \brief Batched Execution's one plan walk (a work-stealing parallel DFS)
/// and the two ways to seed it.
///
/// Pre-sampled trajectories of one noisy program are *almost identical*:
/// they share the coherent circuit and differ only in a handful of sampled
/// noise branches. The walk views a range of specs as a trie over the
/// per-site branch decisions interleaved with the circuit's gate steps (the
/// ExecPlan): every shared prefix is simulated exactly once, and the state
/// is forked (`SimState::clone`) only where two trajectories first deviate.
/// The shared-prefix schedule walks every spec in one trie. The independent
/// schedule walks each spec on its own from |0…0⟩; a one-spec range is
/// always unanimous, so that walk never forks.
///
/// Parallelism: fork points are task-spawn points. A walk starts as one
/// root task on the `TrajectoryExecutor`; where the sorted range splits
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
/// Reproducibility contract: preparation consumes no randomness, a trie
/// path applies the same matrix sequence as a one-spec walk of any of its
/// specs, and every leaf hands its state to the one leaf sampler
/// (ptsbe/core/leaf_sampler.hpp), which draws from the spec's Philox
/// substream — so records, realised probabilities and therefore every
/// downstream estimate and dataset byte are **bit-for-bit identical**
/// between the two schedules *and across every thread count* (see
/// tests/test_scheduler.cpp). Only completion order depends on scheduling.
///
/// Memory: pending subtree tasks each hold one state snapshot. LIFO
/// self-scheduling keeps a worker on its current root-to-leaf path, so the
/// live-snapshot count tracks (fork depth + stolen subtrees), not the whole
/// frontier. The shared-prefix walk holds every spec's dense assignment;
/// an independent walk builds its one spec's assignment inside its task.

#include <vector>

#include "ptsbe/core/backend.hpp"
#include "ptsbe/core/leaf_sampler.hpp"
#include "ptsbe/core/trajectory_executor.hpp"

namespace ptsbe::be {

/// A general-Kraus branch whose realised probability ‖Kψ‖² falls below this
/// cut makes every spec through it unrealizable (realised probability 0).
inline constexpr double kUnrealizableCut = 1e-14;

/// Seed the plan walks of `specs` onto `executor`; call
/// `executor.drain(...)` afterwards to run them. kSharedPrefix seeds one
/// root task over every spec, sorted lexicographically by dense
/// site→branch assignment so specs agreeing on every site up to any depth
/// are contiguous. kIndependent seeds one one-spec walk per spec, in
/// reverse, so a single worker prepares and delivers in spec order. Every
/// leaf hands its prepared state to `leaves`, so spec t samples from
/// `master.substream(t)` and one batch is emitted per spec. Each task adds
/// its preparation wall-clock (state allocation, gate sweeps, branch
/// applications, forks — sampling excluded) to its worker's
/// `leaves.accum(worker)` slot.
///
/// Every argument must outlive the drain.
void spawn_plan_walks(TrajectoryExecutor& executor, const Backend& backend,
                      const NoisyCircuit& noisy, const ExecPlan& plan,
                      const std::vector<TrajectorySpec>& specs,
                      Schedule schedule, LeafSampler& leaves);

}  // namespace ptsbe::be

#include "ptsbe/core/prefix_scheduler.hpp"

#include <memory>
#include <utility>

#include "ptsbe/common/error.hpp"
#include "ptsbe/common/timer.hpp"

namespace ptsbe::be {

namespace {

/// Context shared by every task of one scheduled walk, jointly owned by the
/// task closures (tasks outlive the spawning call). Immutable during the
/// walk; the leaf sampler's accounting slots are single-writer per worker.
struct Walk {
  TrajectoryExecutor& executor;
  const ExecPlan& plan;
  const NoisyCircuit& noisy;
  const std::vector<std::vector<std::size_t>>& assignments;
  LeafSampler& leaves;
};

using WalkPtr = std::shared_ptr<const Walk>;

void spawn_subtree(const WalkPtr& walk, std::size_t worker, SimStatePtr state,
                   double realized, std::size_t step,
                   std::span<const std::size_t> group);

/// Simulate from plan step `step` for the contiguous `group`, whose members
/// agree on every site step before `step`. Exclusively owns `state` — the
/// per-thread ownership that makes subtrees synchronisation-free. Runs
/// iteratively; forks spawn sibling tasks rather than recursing.
void run_subtree(const WalkPtr& walk, std::size_t worker, SimStatePtr state,
                 double realized, std::size_t step,
                 std::span<const std::size_t> group) {
  if (walk->executor.cancelled()) return;
  WallTimer timer;
  const bool batched = state->supports_prepared_runs();
  std::size_t s = step;
  while (s < walk->plan.steps.size()) {
    const PlanStep& plan_step = walk->plan.steps[s];
    if (plan_step.is_gate) {
      // Subtrees enter the plan at step 0 or just after a site step, which
      // is exactly where prepared runs begin — so whole barrier-free gate
      // stretches go through the batched kernel path.
      const std::size_t run =
          batched ? walk->plan.run_starting_at(s) : ExecPlan::npos;
      if (run != ExecPlan::npos) {
        state->apply_prepared_run(walk->plan.prepared_runs[run].gates);
        s += walk->plan.prepared_runs[run].gates.size();
      } else {
        state->apply_gate(plan_step.matrix, plan_step.qubits);
        ++s;
      }
      continue;
    }
    if (walk->executor.cancelled()) {
      walk->leaves.accum(worker).prepare_seconds += timer.seconds();
      return;
    }
    // Partition the (sorted) group into runs of equal branch choice.
    const std::size_t site_id = plan_step.site;
    std::size_t first = 0;
    std::vector<std::pair<std::size_t, std::size_t>> runs;  // [begin, end)
    while (first < group.size()) {
      const std::size_t branch = walk->assignments[group[first]][site_id];
      std::size_t last = first + 1;
      while (last < group.size() &&
             walk->assignments[group[last]][site_id] == branch)
        ++last;
      runs.emplace_back(first, last);
      first = last;
    }
    if (runs.size() > 1) {
      // Fork point = task-spawn point: snapshot the pre-branch state once
      // per earlier run and hand each subtree to the executor; this task
      // continues the last run in place (no snapshot). A spawned task
      // re-enters at this same step, where its narrowed group is unanimous.
      for (std::size_t r = 0; r + 1 < runs.size(); ++r) {
        const auto [begin, end] = runs[r];
        spawn_subtree(walk, worker, state->clone(), realized, s,
                      group.subspan(begin, end - begin));
      }
      const auto [begin, end] = runs.back();
      group = group.subspan(begin, end - begin);
      continue;  // same step, now unanimous
    }
    if (!apply_branch(*state, walk->noisy.sites()[site_id],
                      walk->assignments[group.front()][site_id], realized)) {
      // The shared prefix hit a zero-probability Kraus branch — exactly
      // what the independent path reports for each spec of the group.
      walk->leaves.accum(worker).prepare_seconds += timer.seconds();
      walk->leaves.emit_unrealizable(worker, group);
      return;
    }
    ++s;
  }
  const double sample_seconds =
      walk->leaves.sample(worker, std::move(state), realized, group);
  walk->leaves.accum(worker).prepare_seconds +=
      timer.seconds() - sample_seconds;
}

void spawn_subtree(const WalkPtr& walk, std::size_t worker, SimStatePtr state,
                   double realized, std::size_t step,
                   std::span<const std::size_t> group) {
  walk->executor.spawn_from(
      worker, [walk, state = std::move(state), realized, step,
               group](std::size_t self) mutable {
        run_subtree(walk, self, std::move(state), realized, step, group);
      });
}

}  // namespace

void spawn_shared_prefix(TrajectoryExecutor& executor, const Backend& backend,
                         const NoisyCircuit& noisy, const ExecPlan& plan,
                         const std::vector<std::vector<std::size_t>>& assignments,
                         std::span<const std::size_t> order,
                         LeafSampler& leaves) {
  if (order.empty()) return;
  SimStatePtr root = backend.make_state(noisy.num_qubits());
  PTSBE_REQUIRE(root != nullptr,
                "backend '" + backend.name() +
                    "' cannot fork states; use the independent schedule");
  const WalkPtr walk = std::make_shared<const Walk>(
      Walk{executor, plan, noisy, assignments, leaves});
  executor.spawn([walk, root = std::move(root), order](std::size_t self) mutable {
    run_subtree(walk, self, std::move(root), 1.0, 0, order);
  });
}

std::vector<std::vector<std::size_t>> all_assignments(
    const NoisyCircuit& noisy, const std::vector<TrajectorySpec>& specs) {
  std::vector<std::vector<std::size_t>> out;
  out.reserve(specs.size());
  for (const TrajectorySpec& spec : specs)
    out.push_back(full_assignment(noisy, spec));
  return out;
}

}  // namespace ptsbe::be

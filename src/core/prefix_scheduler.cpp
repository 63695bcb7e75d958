#include "ptsbe/core/prefix_scheduler.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "ptsbe/common/error.hpp"
#include "ptsbe/common/timer.hpp"
#include "ptsbe/kernels/kernel_set.hpp"

namespace ptsbe::be {

namespace {

/// Context shared by every task of one plan walk, jointly owned by the task
/// closures (tasks outlive the spawning call). The walk owns its inputs:
/// `order` lists its specs, sorted so specs agreeing on every site up to
/// any depth are contiguous, and `rows[i]` is the dense assignment of spec
/// `order[i]`. Immutable during the walk; the leaf sampler's accounting
/// slots are single-writer per worker.
struct Walk {
  TrajectoryExecutor& executor;
  const Backend& backend;
  const ExecPlan& plan;
  const NoisyCircuit& noisy;
  LeafSampler& leaves;
  std::vector<std::size_t> order;
  std::vector<std::vector<std::size_t>> rows;
};

using WalkPtr = std::shared_ptr<const Walk>;

void spawn_subtree(const WalkPtr& walk, std::size_t worker, SimStatePtr state,
                   double realized, std::size_t step, std::size_t first,
                   std::size_t last);

/// Simulate from plan step `step` for the specs at positions [first, last)
/// of the walk, which agree on every site step before `step`. Exclusively
/// owns `state` — the per-thread ownership that makes subtrees
/// synchronisation-free. Runs iteratively; forks spawn sibling tasks rather
/// than recursing.
///
/// On a state with prepared runs, the walk defers its gates: each prepared
/// run's gates, each gate step's prepared gate, and the chosen unitary of
/// each unitary-mixture site on at most two qubits, are appended to `span`,
/// which goes to the kernels as one call (and so one cache-blocked pass)
/// only where the state must be current — before a fork's first snapshot,
/// a general-Kraus site, a gate wider than two qubits, and the leaf
/// sampler. The gate sequence is the same as applying each one at its step.
///
/// At a run's first step the range splits by the run's sites: its leading
/// specs that all take the default branch at every one of them, or all do
/// not, stay here, and the rest re-enter at this step in a subtree of their
/// own, where the same split applies. An all-default range appends the
/// run's gates — a window's fused gates — and multiplies each site's
/// nominal probability into `realized` in site order, as the steps would;
/// any other range walks the run's steps one by one. So which gates a spec
/// runs depends only on its own branches, on both schedules.
///
/// A general-Kraus site and each general-Kraus site step right after it on
/// which the range agrees go to the state in one `apply_kraus_branches`
/// call. A site where the range disagrees ends the run, so the fork there
/// still snapshots a renormalised state.
void run_subtree(const WalkPtr& walk, std::size_t worker, SimStatePtr state,
                 double realized, std::size_t step, std::size_t first,
                 std::size_t last) {
  if (walk->executor.cancelled()) return;
  WallTimer timer;
  const bool batched = state->supports_prepared_runs();
  const ExecPlan& plan = walk->plan;
  const std::vector<PlanStep>& steps = plan.steps;
  const std::vector<NoiseSite>& sites = walk->noisy.sites();
  std::vector<kernels::PreparedGate> span;
  std::vector<KrausBranch> kraus;
  std::vector<double> probs;
  // The general-Kraus branch at site step `at` when the range agrees on it.
  const auto agreed_kraus = [&](std::size_t at) -> std::optional<KrausBranch> {
    if (at >= steps.size() || steps[at].is_gate) return std::nullopt;
    const std::size_t id = steps[at].site;
    const NoiseSite& site = sites[id];
    const std::size_t branch = walk->rows[first][id];
    if (site.channel->is_unitary_mixture()) return std::nullopt;
    for (std::size_t i = first + 1; i < last; ++i)
      if (walk->rows[i][id] != branch) return std::nullopt;
    return KrausBranch{&site.channel->kraus(branch), site.qubits};
  };
  // Does the spec at position i take the default branch at every site of
  // `run`?
  const auto takes_defaults = [&](const ExecPlan::PreparedRun& run,
                                  std::size_t i) {
    for (const std::size_t id : run.sites)
      if (walk->rows[i][id] != sites[id].channel->default_branch())
        return false;
    return true;
  };
  // Bring the state up to date; false when the walk was cancelled instead,
  // so a cancelled walk never starts a long span.
  const auto flush = [&] {
    if (walk->executor.cancelled()) return false;
    if (!span.empty()) {
      state->apply_prepared_run(span);
      span.clear();
    }
    return true;
  };
  const auto stop = [&] {
    walk->leaves.accum(worker).prepare_seconds += timer.seconds();
  };
  std::size_t s = step;
  // Steps before this one are walked one by one: the range left the
  // all-default path of the run they belong to.
  std::size_t stepwise_until = 0;
  while (s < steps.size()) {
    const std::size_t r = batched && s >= stepwise_until
                              ? plan.run_starting_at(s)
                              : ExecPlan::npos;
    if (r != ExecPlan::npos) {
      const ExecPlan::PreparedRun& run = plan.prepared_runs[r];
      const bool all_default = takes_defaults(run, first);
      std::size_t end = first + 1;
      while (end < last && takes_defaults(run, end) == all_default) ++end;
      if (end < last) {
        if (!flush()) return stop();
        spawn_subtree(walk, worker, state->clone(), realized, s, end, last);
        last = end;
      }
      if (all_default) {
        span.insert(span.end(), run.gates.begin(), run.gates.end());
        for (const std::size_t id : run.sites) {
          const KrausChannel& ch = *sites[id].channel;
          realized *= ch.nominal_probabilities()[ch.default_branch()];
        }
        s = run.end_step;
      } else {
        stepwise_until = run.end_step;
      }
      continue;
    }
    const PlanStep& plan_step = steps[s];
    if (plan_step.is_gate) {
      if (batched && plan_step.qubits.size() <= 2) {
        span.push_back(plan_step.prepared);
      } else {
        if (!flush()) return stop();
        state->apply_gate(plan_step.matrix, plan_step.qubits);
      }
      ++s;
      continue;
    }
    if (walk->executor.cancelled()) return stop();
    // Scan the (sorted) range for runs of equal branch choice. A unanimous
    // range — every one-spec range — is one scan and no fork. Otherwise the
    // fork point is a task-spawn point: snapshot the pre-branch state once
    // per earlier run and hand each subtree to the executor (it re-enters
    // at this step, where its narrowed range is unanimous); this task
    // continues the last run in place, with no snapshot.
    const std::size_t site_id = plan_step.site;
    for (std::size_t end = first + 1; end < last; ++end) {
      if (walk->rows[end][site_id] == walk->rows[first][site_id]) continue;
      if (!flush()) return stop();
      spawn_subtree(walk, worker, state->clone(), realized, s, first, end);
      first = end;
    }
    const NoiseSite& site = sites[site_id];
    const KrausChannel& ch = *site.channel;
    const std::size_t branch = walk->rows[first][site_id];
    if (ch.is_unitary_mixture()) {
      realized *= ch.nominal_probabilities()[branch];
      if (batched && site.qubits.size() <= 2) {
        span.push_back(kernels::prepare_gate(ch.unitary(branch), site.qubits));
      } else {
        if (!flush()) return stop();
        state->apply_gate(ch.unitary(branch), site.qubits);
      }
    } else {
      if (!flush()) return stop();
      kraus.assign(1, KrausBranch{&ch.kraus(branch), site.qubits});
      while (const auto next = agreed_kraus(s + kraus.size()))
        kraus.push_back(*next);
      probs.resize(kraus.size());
      const std::size_t count =
          state->apply_kraus_branches(kraus, kUnrealizableCut, probs);
      for (std::size_t i = 0; i < count; ++i) realized *= probs[i];
      if (probs[count - 1] < kUnrealizableCut) {
        // A branch of norm ‖Kψ‖² under the cut: every spec of the range is
        // unrealizable.
        stop();
        walk->leaves.emit_unrealizable(
            worker, std::span(walk->order).subspan(first, last - first));
        return;
      }
      s += count - 1;
    }
    ++s;
  }
  if (!flush()) return stop();
  const double sample_seconds = walk->leaves.sample(
      worker, std::move(state), realized,
      std::span(walk->order).subspan(first, last - first));
  walk->leaves.accum(worker).prepare_seconds +=
      timer.seconds() - sample_seconds;
}

void spawn_subtree(const WalkPtr& walk, std::size_t worker, SimStatePtr state,
                   double realized, std::size_t step, std::size_t first,
                   std::size_t last) {
  walk->executor.spawn_from(
      worker, [walk, state = std::move(state), realized, step, first,
               last](std::size_t self) mutable {
        run_subtree(walk, self, std::move(state), realized, step, first,
                    last);
      });
}

/// A walk's root task: every spec of the walk from |0…0⟩ at plan step 0.
void run_root(const WalkPtr& walk, std::size_t worker) {
  if (walk->executor.cancelled()) return;
  WallTimer timer;
  SimStatePtr state = walk->backend.make_state(walk->noisy.num_qubits());
  walk->leaves.accum(worker).prepare_seconds += timer.seconds();
  run_subtree(walk, worker, std::move(state), 1.0, 0, 0, walk->order.size());
}

}  // namespace

void spawn_plan_walks(TrajectoryExecutor& executor, const Backend& backend,
                      const NoisyCircuit& noisy, const ExecPlan& plan,
                      const std::vector<TrajectorySpec>& specs,
                      Schedule schedule, LeafSampler& leaves) {
  if (schedule == Schedule::kIndependent) {
    for (std::size_t t = specs.size(); t-- > 0;)
      executor.spawn([&, t](std::size_t worker) {
        std::vector<std::vector<std::size_t>> rows;
        rows.push_back(full_assignment(noisy, specs[t]));
        run_root(std::make_shared<const Walk>(Walk{executor, backend, plan,
                                                   noisy, leaves, {t},
                                                   std::move(rows)}),
                 worker);
      });
    return;
  }
  if (specs.empty()) return;
  // Lexicographic by assignment, then by spec index, so duplicate
  // assignments keep spec order.
  std::vector<std::pair<std::vector<std::size_t>, std::size_t>> keyed;
  keyed.reserve(specs.size());
  for (std::size_t t = 0; t < specs.size(); ++t)
    keyed.emplace_back(full_assignment(noisy, specs[t]), t);
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::size_t> order;
  std::vector<std::vector<std::size_t>> rows;
  order.reserve(keyed.size());
  rows.reserve(keyed.size());
  for (auto& [row, t] : keyed) {
    rows.push_back(std::move(row));
    order.push_back(t);
  }
  const WalkPtr walk = std::make_shared<const Walk>(Walk{executor, backend,
                                                        plan, noisy, leaves,
                                                        std::move(order),
                                                        std::move(rows)});
  executor.spawn([walk](std::size_t self) { run_root(walk, self); });
}

}  // namespace ptsbe::be

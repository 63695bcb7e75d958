#include "ptsbe/core/exec_plan.hpp"

#include <utility>

#include "ptsbe/circuit/fusion.hpp"
#include "ptsbe/common/error.hpp"

namespace ptsbe {

namespace {

void emit_segment(ExecPlan& plan, std::vector<Operation>& segment,
                  bool fuse_gates) {
  if (segment.empty()) return;
  std::vector<Operation> run =
      fuse_gates ? fuse_gate_run(segment) : std::move(segment);
  for (Operation& op : run) {
    PlanStep step;
    step.is_gate = true;
    step.matrix = std::move(op.matrix);
    step.qubits = std::move(op.qubits);
    plan.steps.push_back(std::move(step));
  }
  segment.clear();
}

void emit_sites(ExecPlan& plan, std::vector<Operation>& segment,
                bool fuse_gates, const std::vector<std::size_t>& site_ids) {
  if (site_ids.empty()) return;
  emit_segment(plan, segment, fuse_gates);  // sites are fusion barriers
  for (std::size_t id : site_ids) {
    PlanStep step;
    step.is_gate = false;
    step.site = id;
    plan.steps.push_back(std::move(step));
  }
}

}  // namespace

ExecPlan build_exec_plan(const NoisyCircuit& noisy, bool fuse_gates) {
  ExecPlan plan;
  std::vector<Operation> segment;
  emit_sites(plan, segment, fuse_gates,
             noisy.sites_after(NoiseSite::kBeforeCircuit));
  const auto& ops = noisy.circuit().ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == OpKind::kGate) {
      segment.push_back(ops[i]);
      ++plan.unfused_gate_count;
    } else if (ops[i].kind == OpKind::kMeasure) {
      // Measurements are fusion barriers, like noise sites: a consumer that
      // records at the measure step must see the pre-measurement segment
      // applied as written.
      emit_segment(plan, segment, fuse_gates);
    }
    emit_sites(plan, segment, fuse_gates, noisy.sites_after(i));
  }
  emit_segment(plan, segment, fuse_gates);
  for (const PlanStep& step : plan.steps)
    step.is_gate ? ++plan.gate_count : ++plan.site_count;

  // Pre-classify barrier-free 1-/2-qubit gate stretches into PreparedRuns:
  // the per-gate classification and matrix flattening happen once here,
  // then every trajectory walk appends whole runs to the gate span it
  // hands the batched kernel entry point. A gate wider than 2 qubits
  // breaks the run (it takes the general k-qubit path), as does any site
  // step.
  plan.run_at_step.assign(plan.steps.size(), ExecPlan::npos);
  std::size_t s = 0;
  while (s < plan.steps.size()) {
    const PlanStep& step = plan.steps[s];
    if (!step.is_gate || step.qubits.size() > 2) {
      ++s;
      continue;
    }
    ExecPlan::PreparedRun run;
    run.first_step = s;
    while (s < plan.steps.size() && plan.steps[s].is_gate &&
           plan.steps[s].qubits.size() <= 2) {
      run.gates.push_back(
          kernels::prepare_gate(plan.steps[s].matrix, plan.steps[s].qubits));
      ++s;
    }
    plan.run_at_step[run.first_step] = plan.prepared_runs.size();
    plan.prepared_runs.push_back(std::move(run));
  }
  return plan;
}

std::vector<std::size_t> full_assignment(const NoisyCircuit& noisy,
                                         const TrajectorySpec& spec) {
  std::vector<std::size_t> assignment(noisy.num_sites());
  for (std::size_t i = 0; i < noisy.num_sites(); ++i)
    assignment[i] = noisy.sites()[i].channel->default_branch();
  for (const BranchChoice& bc : spec.branches) {
    PTSBE_REQUIRE(bc.site < noisy.num_sites(), "spec site out of range");
    PTSBE_REQUIRE(bc.branch < noisy.sites()[bc.site].channel->num_branches(),
                  "spec branch out of range");
    assignment[bc.site] = bc.branch;
  }
  return assignment;
}

}  // namespace ptsbe

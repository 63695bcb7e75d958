#include "ptsbe/core/exec_plan.hpp"

#include <cmath>
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
  // The step list fuses no gate across a site; windows do (see below).
  emit_segment(plan, segment, fuse_gates);
  for (std::size_t id : site_ids) {
    PlanStep step;
    step.is_gate = false;
    step.site = id;
    plan.steps.push_back(std::move(step));
  }
}

/// Can a window span `site`: a unitary mixture whose default branch's
/// unitary is the identity, up to the rounding of K/√p (an identity
/// branch of weight 1 − p can come out at 1 − 2^-53)?
bool default_is_identity(const NoiseSite& site) {
  const KrausChannel& ch = *site.channel;
  if (!ch.is_unitary_mixture()) return false;
  const Matrix& u = ch.unitary(ch.default_branch());
  for (std::size_t r = 0; r < u.rows(); ++r)
    for (std::size_t c = 0; c < u.cols(); ++c)
      if (std::abs(u(r, c) - cplx{r == c ? 1.0 : 0.0, 0.0}) > 1e-12)
        return false;
  return true;
}

}  // namespace

ExecPlan build_exec_plan(const NoisyCircuit& noisy, bool fuse_gates) {
  ExecPlan plan;
  std::vector<Operation> segment;
  // cut[s]: a measurement lies just before step s, so no run crosses it.
  std::vector<bool> cut;
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
      cut.resize(plan.steps.size() + 1, false);
      cut.back() = true;
    }
    emit_sites(plan, segment, fuse_gates, noisy.sites_after(i));
  }
  emit_segment(plan, segment, fuse_gates);
  const std::size_t n = plan.steps.size();
  cut.resize(n + 1, false);
  for (PlanStep& step : plan.steps) {
    if (!step.is_gate)
      ++plan.site_count;
    else if (step.qubits.size() <= 2)
      step.prepared = kernels::prepare_gate(step.matrix, step.qubits);
  }

  // Runs: the classification and matrix flattening happen once here, then
  // every trajectory walk appends whole runs to the gate span it hands the
  // batched kernel entry point. A run is a stretch of 1-/2-qubit gate steps
  // and, under fusion, of sites a window can span; everything else — a
  // wider gate, any other site, a measurement — ends it. Under fusion a
  // stretch is cut into windows of about kWindowGates gates, each closed
  // just before a gate that follows a site, so the segments the step list
  // fused stay whole.
  const auto joins = [&](std::size_t s) {
    const PlanStep& step = plan.steps[s];
    if (step.is_gate) return step.qubits.size() <= 2;
    return fuse_gates && default_is_identity(noisy.sites()[step.site]);
  };
  plan.run_at_step.assign(n, ExecPlan::npos);
  std::size_t s = 0;
  while (s < n) {
    if (!joins(s)) {
      if (plan.steps[s].is_gate) ++plan.gate_count;
      ++s;
      continue;
    }
    ExecPlan::PreparedRun run;
    run.first_step = s;
    do {
      const PlanStep& step = plan.steps[s];
      if (!step.is_gate) {
        run.sites.push_back(step.site);
      } else if (run.gates.size() >= ExecPlan::kWindowGates &&
                 !plan.steps[s - 1].is_gate) {
        break;
      } else {
        run.gates.push_back(step.prepared);
      }
      ++s;
    } while (s < n && joins(s) && !cut[s]);
    run.end_step = s;
    if (run.gates.empty()) continue;  // sites only: walked step by step
    if (!run.sites.empty()) {
      std::vector<Operation> window;
      for (std::size_t t = run.first_step; t < run.end_step; ++t)
        if (plan.steps[t].is_gate)
          window.push_back(Operation{OpKind::kGate, "", plan.steps[t].qubits,
                                     {}, plan.steps[t].matrix});
      run.gates.clear();
      for (const Operation& op : fuse_gate_run(window))
        run.gates.push_back(kernels::prepare_gate(op.matrix, op.qubits));
    }
    plan.gate_count += run.gates.size();
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

#include "ptsbe/core/batched_execution.hpp"

#include <unordered_set>
#include <utility>

#include "ptsbe/common/error.hpp"
#include "ptsbe/common/record_runs.hpp"
#include "ptsbe/core/leaf_sampler.hpp"
#include "ptsbe/core/prefix_scheduler.hpp"
#include "ptsbe/core/trajectory_executor.hpp"

namespace ptsbe::be {

const std::string& to_string(Schedule schedule) {
  static const std::string kIndependentName = "independent";
  static const std::string kSharedPrefixName = "shared-prefix";
  return schedule == Schedule::kSharedPrefix ? kSharedPrefixName
                                             : kIndependentName;
}

Schedule schedule_from_string(const std::string& name) {
  if (name == "independent") return Schedule::kIndependent;
  if (name == "shared-prefix") return Schedule::kSharedPrefix;
  throw precondition_error("unknown schedule '" + name +
                           "'; known schedules: independent shared-prefix");
}

std::uint64_t Result::total_shots() const noexcept {
  std::uint64_t total = 0;
  for (const TrajectoryBatch& b : batches) total += b.records.size();
  return total;
}

double Result::unique_shot_fraction() const {
  const std::uint64_t total = total_shots();
  // Empty results (no batches, or only unrealizable zero-record batches)
  // have no well-defined fraction; return 0.0 rather than dividing into
  // NaN. Pinned by tests/test_scheduler.cpp.
  if (total == 0) return 0.0;
  // Single pass, no materialised concatenation, one insert per run of equal
  // records: bulk-sampled batches come out sorted, so a 32M-shot result
  // with 32 distinct records makes about 32 inserts, not 32M.
  std::unordered_set<std::uint64_t> distinct;
  for (const TrajectoryBatch& b : batches)
    for_each_run(b.records, [&distinct](std::uint64_t record, std::uint64_t) {
      distinct.insert(record);
    });
  return static_cast<double>(distinct.size()) / static_cast<double>(total);
}

StreamSummary execute_streaming(const NoisyCircuit& noisy,
                                const std::vector<TrajectorySpec>& specs,
                                const Options& options, const BatchSink& sink) {
  PTSBE_REQUIRE(static_cast<bool>(sink), "streaming execution needs a sink");
  // Resolve the backend by name once; the instance is immutable and
  // re-entrant, so every worker shares it.
  const BackendPtr backend = make_backend(options.backend, options.config);
  PTSBE_REQUIRE(backend->supports(noisy),
                "backend '" + options.backend +
                    "' does not support this program (gate set, channel "
                    "class or qubit count)");
  // Cheap fingerprint on an injected plan: a plan built for a different
  // program would otherwise sweep the wrong step list and return
  // plausible-looking records. (Matching counts with a different fusion
  // setting remain the caller's contract — see Options::plan.)
  PTSBE_REQUIRE(!options.plan ||
                    (options.plan->site_count == noisy.num_sites() &&
                     options.plan->unfused_gate_count ==
                         noisy.circuit().gate_count()),
                "injected ExecPlan does not match this program (site/gate "
                "counts differ); it must come from make_plan on the same "
                "NoisyCircuit");

  // An injected plan (the serve engine's cache) replaces the per-call
  // fusion+lowering pass; otherwise build one for this run.
  const ExecPlan local_plan =
      options.plan ? ExecPlan{} : backend->make_plan(noisy);
  const ExecPlan& plan = options.plan ? *options.plan : local_plan;

  TrajectoryExecutor executor(resolved_threads(options));
  LeafSampler leaves(executor, noisy, specs, RngStream(options.seed));
  spawn_plan_walks(executor, *backend, noisy, plan, specs, options.schedule,
                   leaves);
  executor.drain([&sink](TrajectoryBatch&& batch) { sink(std::move(batch)); });
  return leaves.summary();
}

Result execute(const NoisyCircuit& noisy,
               const std::vector<TrajectorySpec>& specs,
               const Options& options) {
  // The non-streaming path is a materialising sink over the streaming one:
  // batches land at their spec index, restoring spec order (and erasing any
  // thread-scheduling effect on ordering).
  Result result;
  result.batches.resize(specs.size());
  const StreamSummary summary = execute_streaming(
      noisy, specs, options, [&result](TrajectoryBatch&& batch) {
        result.batches[batch.spec_index] = std::move(batch);
      });
  result.prepare_seconds = summary.prepare_seconds;
  result.sample_seconds = summary.sample_seconds;
  return result;
}

}  // namespace ptsbe::be

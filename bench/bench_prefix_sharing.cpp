// Shared-prefix scheduling + gate fusion vs the independent schedule.
//
// Pre-sampled trajectories are *almost identical*: they share the noiseless
// circuit and differ in a handful of sampled noise branches. The
// shared-prefix scheduler simulates every common prefix once and forks the
// state at the first deviating branch; the fusion pass additionally
// collapses runs of same-support gates into single sweeps. Both are pure
// optimisations: at a fixed fusion setting, records are bit-for-bit
// identical to the independent schedule (asserted in
// tests/test_scheduler.cpp and re-checked here via shot-count invariants);
// fusion itself is equivalent up to floating-point reassociation.
//
// Workloads sweep trajectory count and *overlap level* (where in the
// circuit the noise lives): noise concentrated late in the program means
// long shared prefixes and large wins; noise spread over every gate means
// prefixes diverge early and the win shrinks toward the fusion-only gain.
//
//   bench_prefix_sharing [output.json] [--tiny]   (JSON only to a given path)
//
// --tiny shrinks every dimension so the ctest smoke can exercise the JSON
// emitter in well under a second.

#include <cstdio>
#include <string>
#include <vector>

#include "ptsbe/common/timer.hpp"
#include "ptsbe/core/batched_execution.hpp"
#include "ptsbe/core/pts.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

using namespace ptsbe;

double time_execute(const NoisyCircuit& noisy,
                    const std::vector<TrajectorySpec>& specs,
                    be::Schedule schedule, bool fuse,
                    std::uint64_t* total_shots = nullptr) {
  be::Options options;
  options.schedule = schedule;
  options.config.fuse_gates = fuse;
  WallTimer timer;
  const be::Result result = be::execute(noisy, specs, options);
  const double seconds = timer.seconds();
  if (total_shots != nullptr) *total_shots = result.total_shots();
  return seconds;
}

bench::Object run_case(const std::string& label, const NoisyCircuit& noisy,
                       std::size_t trajectories, std::uint64_t shots) {
  RngStream rng(1234);
  pts::Options opt;
  opt.nsamples = trajectories;
  opt.nshots = shots;
  opt.merge_duplicates = true;
  const std::vector<TrajectorySpec> specs =
      pts::sample_probabilistic(noisy, opt, rng);

  double weight = 0.0;
  for (const TrajectorySpec& spec : specs)
    weight += static_cast<double>(spec.error_weight());
  const double mean_weight = specs.empty() ? 0.0 : weight / specs.size();

  std::uint64_t shots_independent = 0, shots_shared = 0, shots_fused = 0;
  const double independent = time_execute(
      noisy, specs, be::Schedule::kIndependent, false, &shots_independent);
  const double independent_fused =
      time_execute(noisy, specs, be::Schedule::kIndependent, true);
  const double shared = time_execute(noisy, specs, be::Schedule::kSharedPrefix,
                                     false, &shots_shared);
  const double shared_fused = time_execute(
      noisy, specs, be::Schedule::kSharedPrefix, true, &shots_fused);
  if (shots_shared != shots_independent || shots_fused != shots_independent)
    std::fprintf(stderr, "WARNING: shot totals diverged on %s\n",
                 label.c_str());
  std::printf("%-36s n=%2u traj=%5zu w=%4.2f  indep %8.3fs  +fusion %5.2fx  "
              "shared %5.2fx  shared+fusion %5.2fx\n",
              label.c_str(), noisy.num_qubits(), specs.size(), mean_weight,
              independent, independent / independent_fused,
              independent / shared, independent / shared_fused);
  bench::Object row;
  row.add("workload", label)
      .add("qubits", noisy.num_qubits())
      .add("trajectories", specs.size())
      .add("shots_per_trajectory", shots)
      .add("mean_error_weight", mean_weight)
      .add("independent_seconds", independent)
      .add("independent_fused_seconds", independent_fused)
      .add("shared_prefix_seconds", shared)
      .add("shared_prefix_fused_seconds", shared_fused)
      .add("speedup_fused", independent / independent_fused)
      .add("speedup_shared_prefix", independent / shared)
      .add("speedup_shared_prefix_fused", independent / shared_fused);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const bool tiny = args.tiny;

  const unsigned n = tiny ? 6 : 18;
  const std::uint64_t shots = tiny ? 8 : 64;
  const std::vector<std::size_t> counts =
      tiny ? std::vector<std::size_t>{20}
           : std::vector<std::size_t>{100, 500, 1000};

  std::printf("schedule comparison (statevector backend)\n\n");
  std::vector<bench::Object> rows;
  for (std::size_t trajectories : counts) {
    const std::string ghz = "ghz" + std::to_string(n);
    rows.push_back(run_case(ghz + "/high-overlap(readout-noise)",
                            bench::ghz_workload(n, "readout", 0), trajectories,
                            shots));
    rows.push_back(run_case(ghz + "/high-overlap(late-noise)",
                            bench::ghz_workload(n, "late", 4), trajectories,
                            shots));
    rows.push_back(run_case(ghz + "/moderate-overlap(gate-noise)",
                            bench::ghz_workload(n, "all", 0), trajectories,
                            shots));
  }
  std::printf(
      "\nMechanism: the scheduler simulates each shared trajectory prefix\n"
      "once and forks at the first deviating branch, so the win tracks how\n"
      "late in the program trajectories deviate; gate fusion stacks on top\n"
      "by collapsing same-support gate runs into single sweeps. At a fixed\n"
      "fusion setting records are bit-for-bit identical across schedules;\n"
      "fusion is equivalent up to floating-point reassociation.\n");
  return bench::report("prefix_sharing", 1).add("rows", rows).write(args.out)
             ? 0
             : 1;
}

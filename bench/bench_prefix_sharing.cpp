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
#include <cstring>
#include <string>
#include <vector>

#include "ptsbe/common/timer.hpp"
#include "ptsbe/core/batched_execution.hpp"
#include "ptsbe/core/pts.hpp"
#include "ptsbe/noise/channels.hpp"

namespace {

using namespace ptsbe;

struct Row {
  std::string workload;
  unsigned qubits = 0;
  std::size_t trajectories = 0;
  std::uint64_t shots_per_trajectory = 0;
  double mean_error_weight = 0.0;
  double independent_seconds = 0.0;
  double independent_fused_seconds = 0.0;
  double shared_seconds = 0.0;
  double shared_fused_seconds = 0.0;
  double speedup_fused = 0.0;
  double speedup_shared = 0.0;
  double speedup_shared_fused = 0.0;
};

std::vector<Row>& rows() {
  static std::vector<Row> all;
  return all;
}

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

void run_case(const std::string& label, const NoisyCircuit& noisy,
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

  Row row;
  row.workload = label;
  row.qubits = noisy.num_qubits();
  row.trajectories = specs.size();
  row.shots_per_trajectory = shots;
  row.mean_error_weight = specs.empty() ? 0.0 : weight / specs.size();

  std::uint64_t shots_independent = 0, shots_shared = 0, shots_fused = 0;
  row.independent_seconds = time_execute(
      noisy, specs, be::Schedule::kIndependent, false, &shots_independent);
  row.independent_fused_seconds =
      time_execute(noisy, specs, be::Schedule::kIndependent, true);
  row.shared_seconds = time_execute(noisy, specs, be::Schedule::kSharedPrefix,
                                    false, &shots_shared);
  row.shared_fused_seconds = time_execute(
      noisy, specs, be::Schedule::kSharedPrefix, true, &shots_fused);
  if (shots_shared != shots_independent || shots_fused != shots_independent)
    std::fprintf(stderr, "WARNING: shot totals diverged on %s\n",
                 label.c_str());
  row.speedup_fused =
      row.independent_seconds / row.independent_fused_seconds;
  row.speedup_shared = row.independent_seconds / row.shared_seconds;
  row.speedup_shared_fused =
      row.independent_seconds / row.shared_fused_seconds;
  std::printf("%-36s n=%2u traj=%5zu w=%4.2f  indep %8.3fs  +fusion %5.2fx  "
              "shared %5.2fx  shared+fusion %5.2fx\n",
              label.c_str(), row.qubits, row.trajectories,
              row.mean_error_weight, row.independent_seconds, row.speedup_fused,
              row.speedup_shared, row.speedup_shared_fused);
  rows().push_back(row);
}

/// GHZ chain with noise placement controlling the overlap level.
///  - "readout": bit flips on measurement only — every trajectory shares
///               the *entire* gate sweep (readout-error-dominated regime).
///  - "late":    two-qubit depolarizing on the last `late_cx` entanglers
///               (plus light readout flips) — long shared prefixes.
///  - "all":     one-qubit depolarizing after every gate — prefixes can
///               diverge anywhere in the program.
NoisyCircuit ghz_workload(unsigned n, const std::string& overlap,
                          unsigned late_cx) {
  // "Dressed" GHZ: a local-rotation layer before and after the entangling
  // chain. The dressing is what gate fusion feeds on — each ry·rz pair
  // collapses to one sweep and then folds into the neighbouring cx.
  Circuit c(n);
  for (unsigned q = 0; q < n; ++q)
    c.ry(q, 0.11 * (q + 1)).rz(q, 0.07 * (q + 1));
  c.h(0);
  for (unsigned q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  for (unsigned q = 0; q < n; ++q)
    c.rz(q, 0.05 * (q + 1)).ry(q, 0.13 * (q + 1));
  c.measure_all();
  NoiseModel noise;
  if (overlap == "readout") {
    noise.add_measurement_noise(channels::bit_flip(0.15));
  } else if (overlap == "late") {
    const unsigned first = n - 1 > late_cx ? n - 1 - late_cx : 0;
    for (unsigned q = first; q + 1 < n; ++q)
      noise.add_gate_noise_on("cx", {q, q + 1}, channels::depolarizing2(0.12));
    noise.add_measurement_noise(channels::bit_flip(0.02));
  } else {
    noise.add_all_gate_noise(channels::depolarizing(0.01));
  }
  return noise.apply(c);
}

void write_json(const char* path) {
  std::FILE* os = std::fopen(path, "w");
  if (os == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(os, "{\n  \"bench\": \"prefix_sharing\",\n  \"rows\": [\n");
  for (std::size_t i = 0; i < rows().size(); ++i) {
    const Row& r = rows()[i];
    std::fprintf(
        os,
        "    {\"workload\": \"%s\", \"qubits\": %u, \"trajectories\": %zu, "
        "\"shots_per_trajectory\": %llu, \"mean_error_weight\": %.3f, "
        "\"independent_seconds\": %.4f, \"independent_fused_seconds\": %.4f, "
        "\"shared_prefix_seconds\": %.4f, "
        "\"shared_prefix_fused_seconds\": %.4f, \"speedup_fused\": %.3f, "
        "\"speedup_shared_prefix\": %.3f, "
        "\"speedup_shared_prefix_fused\": %.3f}%s\n",
        r.workload.c_str(), r.qubits, r.trajectories,
        static_cast<unsigned long long>(r.shots_per_trajectory),
        r.mean_error_weight, r.independent_seconds,
        r.independent_fused_seconds, r.shared_seconds, r.shared_fused_seconds,
        r.speedup_fused, r.speedup_shared, r.speedup_shared_fused,
        i + 1 < rows().size() ? "," : "");
  }
  std::fprintf(os, "  ]\n}\n");
  const bool ok = std::ferror(os) == 0;
  if (std::fclose(os) != 0 || !ok) {
    std::fprintf(stderr, "error while writing %s\n", path);
    return;
  }
  std::printf("\nwrote %s (%zu rows)\n", path, rows().size());
}

}  // namespace

int main(int argc, char** argv) {
  const char* out = nullptr;  // JSON only to a path given on the command line
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0)
      tiny = true;
    else
      out = argv[i];
  }

  const unsigned n = tiny ? 6 : 18;
  const std::uint64_t shots = tiny ? 8 : 64;
  const std::vector<std::size_t> counts =
      tiny ? std::vector<std::size_t>{20}
           : std::vector<std::size_t>{100, 500, 1000};

  std::printf("schedule comparison (statevector backend)\n\n");
  for (std::size_t trajectories : counts) {
    run_case("ghz" + std::to_string(n) + "/high-overlap(readout-noise)",
             ghz_workload(n, "readout", 0), trajectories, shots);
    run_case("ghz" + std::to_string(n) + "/high-overlap(late-noise)",
             ghz_workload(n, "late", 4), trajectories, shots);
    run_case("ghz" + std::to_string(n) + "/moderate-overlap(gate-noise)",
             ghz_workload(n, "all", 0), trajectories, shots);
  }
  std::printf(
      "\nMechanism: the scheduler simulates each shared trajectory prefix\n"
      "once and forks at the first deviating branch, so the win tracks how\n"
      "late in the program trajectories deviate; gate fusion stacks on top\n"
      "by collapsing same-support gate runs into single sweeps. At a fixed\n"
      "fusion setting records are bit-for-bit identical across schedules;\n"
      "fusion is equivalent up to floating-point reassociation.\n");
  if (out != nullptr) write_json(out);
  return 0;
}

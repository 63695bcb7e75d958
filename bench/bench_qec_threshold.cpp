// QEC threshold sweep: logical error rate per (code, distance, physical
// noise strength) for the repetition code d ∈ {3, 5, 7} and the rotated
// surface code d = 3, decoded with the space-time union-find decoder
// (syndrome history + final readout over the detector graph) — the flagship
// "heavy traffic" workload of ROADMAP item 4 (thousands of noisy
// trajectories per point through the PTS → BE pipeline).
//
// The physics the curves must show: *sub-threshold suppression*. Below the
// threshold noise strength, a larger distance gives a lower logical error
// rate; above it, the extra qubits only add more noise, so the ordering
// flips. The d=3 vs d=5 repetition curves therefore cross, and this bench
// locates the crossing and exits nonzero in full mode if it is absent —
// the committed BENCH_qec_threshold.json is an acceptance artifact, not
// just timing.
//
// Execution: stabilizer backend (the workloads are Clifford with Pauli
// mixtures), probabilistic PTS with merged duplicates, streaming decode via
// qec::run_memory_point — so no point ever materialises its full record
// set. All channels are unitary mixtures, so every shot has weight 1 and
// the weighted rate is the raw failure fraction.
//
//   bench_qec_threshold [output.json] [--tiny]   (JSON only to a given path)

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "ptsbe/common/timer.hpp"
#include "ptsbe/qec/metrics.hpp"
#include "report.hpp"

namespace {

using namespace ptsbe;

struct CurveSpec {
  const char* code;
  unsigned distance;
};

qec::LogicalErrorPoint sweep_point(const char* code, unsigned distance,
                                   unsigned rounds, double noise,
                                   std::size_t nsamples, std::uint64_t nshots,
                                   std::size_t threads) {
  qec::MemoryWorkloadConfig wcfg;
  wcfg.code = code;
  wcfg.distance = distance;
  wcfg.rounds = rounds;
  wcfg.noise = noise;
  const qec::MemoryWorkload workload = qec::make_memory_workload(wcfg);
  const auto decoder =
      qec::make_shot_decoder("st-union-find", workload.experiment);
  qec::MemoryRunConfig run;
  run.strategy = "probabilistic";
  run.strategy_config.nsamples = nsamples;
  run.strategy_config.nshots = nshots;
  run.backend = "stabilizer";
  run.threads = threads;
  run.seed = 0xC0DEC0DEULL + distance * 1000 +
             static_cast<std::uint64_t>(noise * 1e6);
  return qec::run_memory_point(workload, *decoder, run);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const bool tiny = args.tiny;

  std::size_t hardware = std::thread::hardware_concurrency();
  if (hardware == 0) hardware = 1;

  const unsigned rounds = 2;
  const std::size_t nsamples = tiny ? 120 : 12000;
  const std::uint64_t nshots = tiny ? 8 : 50;
  const std::size_t threads = 0;  // hardware concurrency (bit-identical
                                  // records at every thread count)
  const std::vector<CurveSpec> curves =
      tiny ? std::vector<CurveSpec>{{"repetition", 3}, {"repetition", 5}}
           : std::vector<CurveSpec>{{"repetition", 3},
                                    {"repetition", 5},
                                    {"repetition", 7},
                                    {"surface", 3}};
  const std::vector<double> noises =
      tiny ? std::vector<double>{0.01, 0.1}
           : std::vector<double>{0.003, 0.006, 0.012, 0.025, 0.05,
                                 0.09,  0.14,  0.18,  0.22};

  std::printf(
      "qec threshold sweep (space-time union-find decoder, stabilizer "
      "backend, "
      "rounds=%u, %zu x %llu shots/point, hardware_concurrency=%zu)\n\n",
      rounds, nsamples, static_cast<unsigned long long>(nshots), hardware);
  std::printf("%-12s %-4s %-8s %-12s %-10s %s\n", "code", "d", "noise",
              "rate", "failures", "95% Wilson CI");

  WallTimer timer;
  std::vector<qec::LogicalErrorPoint> points;
  for (const CurveSpec& curve : curves) {
    for (const double noise : noises) {
      const qec::LogicalErrorPoint p = sweep_point(
          curve.code, curve.distance, rounds, noise, nsamples, nshots,
          threads);
      std::printf("%-12s %-4u %-8.3f %-12.3e %-10llu [%.3e, %.3e]\n",
                  p.code.c_str(), p.distance, p.noise, p.logical_error_rate,
                  static_cast<unsigned long long>(p.failures), p.ci.lower,
                  p.ci.upper);
      points.push_back(p);
    }
  }
  const double seconds = timer.seconds();

  // Locate the d=3 / d=5 repetition crossing: the first adjacent noise pair
  // where the rate ordering flips from d5 < d3 (sub-threshold) to d5 >= d3.
  const auto rate_of = [&](unsigned distance, double noise) -> double {
    for (const qec::LogicalErrorPoint& p : points)
      if (p.code == "repetition" && p.distance == distance &&
          p.noise == noise)
        return p.logical_error_rate;
    return -1.0;
  };
  bool crossing_found = false;
  double crossing_low = 0.0, crossing_high = 0.0;
  bool suppressed_somewhere = false;
  for (std::size_t i = 0; i + 1 < noises.size(); ++i) {
    const double r3a = rate_of(3, noises[i]), r5a = rate_of(5, noises[i]);
    const double r3b = rate_of(3, noises[i + 1]),
                 r5b = rate_of(5, noises[i + 1]);
    if (r3a < 0 || r5a < 0 || r3b < 0 || r5b < 0) continue;
    if (r5a < r3a) suppressed_somewhere = true;
    if (r5a < r3a && r5b >= r3b) {
      crossing_found = true;
      crossing_low = noises[i];
      crossing_high = noises[i + 1];
      break;
    }
  }
  if (crossing_found)
    std::printf(
        "\nd3/d5 repetition crossing between noise %.3f and %.3f "
        "(sub-threshold suppression visible)\n",
        crossing_low, crossing_high);
  else
    std::printf("\nWARNING: no d3/d5 repetition crossing in the sweep%s\n",
                suppressed_somewhere ? " (suppression seen but no flip)"
                                     : "");

  // The committed artifact must show the crossing; the tiny smoke only
  // checks that the machinery runs.
  const int status = !tiny && !crossing_found ? 1 : 0;
  if (status != 0)
    std::fprintf(stderr,
                 "FAIL: sub-threshold suppression crossing not visible\n");
  std::vector<bench::Object> rows;
  for (const qec::LogicalErrorPoint& p : points)
    rows.push_back(bench::Object()
                       .add("code", p.code)
                       .add("distance", p.distance)
                       .add("rounds", p.rounds)
                       .add("noise", p.noise)
                       .add("readout_noise", p.readout_noise)
                       .add("shots", p.shots)
                       .add("failures", p.failures)
                       .add("logical_error_rate", p.logical_error_rate)
                       .add("wilson_lower", p.ci.lower)
                       .add("wilson_upper", p.ci.upper));
  const bool written =
      bench::report("qec_threshold", hardware)
          .add("hardware_concurrency", hardware)
          .add("decoder", "st-union-find")
          .add("backend", "stabilizer")
          .add("strategy", "probabilistic")
          .add("rounds", rounds)
          .add("shots_per_point", nsamples * nshots)
          .add("seconds_total", seconds)
          .add("note",
               "circuit-level depolarizing noise after every gate, readout "
               "bit-flips at half strength; logical error rate of the "
               "transversal Z readout decoded by space-time union-find over "
               "the detector graph; below threshold the d=5 curve sits under "
               "d=3, above it the ordering flips")
          .add("points", rows)
          .add("repetition_d3_d5_crossing",
               bench::Object()
                   .add("found", crossing_found)
                   .add("noise_low", crossing_low)
                   .add("noise_high", crossing_high))
          .write(args.out);
  return written ? status : 1;
}

// Figure 5 inset reproduction: shot-collection efficiency vs number of
// devices.
//
// The paper's inset shows near-linear *intra*-trajectory scaling with GPU
// count, and notes inter-trajectory scaling is linear by definition
// (embarrassing parallelism). Our substitution maps devices to the
// executor's worker threads (`be::Options::threads`) and measures the
// inter-trajectory layer, which is the one PTSBE itself contributes. On a
// single-core host the measured curve is flat — the bench still
// demonstrates correct parallel decomposition (per-trajectory Philox
// substreams keep results identical at every device count) and reports the
// scheduling overhead.

#include <cstdio>
#include <thread>

#include "ptsbe/common/timer.hpp"
#include "ptsbe/core/batched_execution.hpp"
#include "ptsbe/core/pts.hpp"
#include "workloads.hpp"

int main() {
  using namespace ptsbe;
  const NoisyCircuit noisy =
      bench::noisy_msd_preparation(qec::steane(), 0.002);

  RngStream rng(31);
  pts::Options opt;
  opt.nsamples = 16;  // 16 independent trajectories to farm out
  opt.nshots = 200;
  opt.merge_duplicates = true;
  const auto specs = pts::sample_probabilistic(noisy, opt, rng);

  std::printf("host hardware threads: %u\n",
              std::thread::hardware_concurrency());
  std::printf("%8s %12s %10s %12s\n", "devices", "seconds", "speedup",
              "identical");

  double t1 = 0.0;
  be::Result reference;
  for (std::size_t devices : {1u, 2u, 4u, 8u}) {
    be::Options exec;
    exec.backend = "mps";
    exec.config.mps.max_bond = 64;
    exec.threads = devices;
    WallTimer t;
    const be::Result result = be::execute(noisy, specs, exec);
    const double secs = t.seconds();
    if (devices == 1) {
      t1 = secs;
      reference = result;
    }
    bool identical = result.batches.size() == reference.batches.size();
    for (std::size_t i = 0; identical && i < result.batches.size(); ++i)
      identical = result.batches[i].records == reference.batches[i].records;
    std::printf("%8zu %12.3f %10.2f %12s\n", devices, secs, t1 / secs,
                identical ? "yes" : "NO");
  }
  std::printf(
      "\nOn a multi-core host the speedup column approaches the device count\n"
      "(trajectories are independent); identical=yes shows determinism is\n"
      "preserved under any scheduling, which is what counter-based RNG\n"
      "substreams buy (cuRAND-style; see the RNG reproducibility guarantee\n"
      "in docs/architecture.md).\n");
  return 0;
}

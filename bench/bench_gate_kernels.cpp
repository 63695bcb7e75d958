// Amplitude-kernel microbenchmark + end-to-end kernel-dispatch comparison.
//
// Part 1 sweeps every compiled-and-supported kernel set (scalar, AVX2,
// AVX-512) over the gate classes the classifier routes — dense 1q at low /
// mid / high qubit positions (the three stride regimes), dense 2q and
// controlled on low qubits (whose strides are below the register width)
// and higher ones, diagonal and permutation — and reports amplitudes
// touched per second.
// Its general-Kraus rows time an amplitude-damping no-decay site both
// ways: the fused `kraus_sweep` (prescale, K and block sums in one pass)
// and the three sweeps it replaces (K, the block sums of |a|², the
// rescale).
// Because every set computes bit-identical amplitudes (tests/test_kernels
// pins this), the ratio is pure ISA throughput, not a numerics trade.
//
// Part 2 reruns the three ghz-chain workloads of bench_prefix_sharing
// (readout- / late- / gate-noise overlap levels) under the shared-prefix +
// fusion schedule with the kernel selection pinned to "scalar" and then to
// the best set the CPU supports — the end-to-end win of SIMD dispatch on
// the full trajectory engine, with scheduling gains factored out.
//
//   bench_gate_kernels [output.json] [--tiny]   (JSON only to a given path)
//
// --tiny shrinks every dimension so the ctest smoke can exercise the JSON
// emitter in well under a second.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "ptsbe/circuit/gates.hpp"
#include "ptsbe/common/aligned.hpp"
#include "ptsbe/common/rng.hpp"
#include "ptsbe/common/timer.hpp"
#include "ptsbe/core/batched_execution.hpp"
#include "ptsbe/core/pts.hpp"
#include "ptsbe/kernels/kernel_set.hpp"
#include "ptsbe/noise/channels.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

using namespace ptsbe;

std::vector<bench::Object> kernel_rows;
std::vector<bench::Object> workload_rows;

AlignedVector<cplx> random_state(unsigned n, std::uint64_t seed) {
  RngStream rng(seed);
  AlignedVector<cplx> amp(std::uint64_t{1} << n);
  for (cplx& a : amp) a = cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  return amp;
}

/// Time `reps` applications of one prepared gate with `set`; returns
/// amplitudes touched per second (dim per sweep — every kernel reads and
/// writes the full array except the controlled one, which we still count at
/// dim to keep rows comparable).
double time_kernel(const kernels::KernelSet& set, AlignedVector<cplx>& amp,
                   const kernels::PreparedGate& g, std::size_t reps) {
  // Warm-up sweep: faults pages and pulls the array through the cache
  // hierarchy once before timing.
  kernels::apply_prepared(set, amp.data(), amp.size(), g);
  WallTimer timer;
  for (std::size_t r = 0; r < reps; ++r)
    kernels::apply_prepared(set, amp.data(), amp.size(), g);
  const double seconds = timer.seconds();
  return static_cast<double>(amp.size()) * static_cast<double>(reps) / seconds;
}

/// One general-Kraus site as one `kraus_sweep` per unit, carrying the
/// previous site's 1/√p in as its prescale.
double fused_kraus_site(const kernels::KernelSet& set, AlignedVector<cplx>& amp,
                        const kernels::PreparedGate& g, double prescale,
                        std::vector<double>& sums) {
  for (std::uint64_t u = 0; u < kernels::kraus_units(amp.size()); ++u)
    set.kraus_sweep(amp.data(), amp.size(), g, prescale, sums.data(), u, u + 1);
  double p = 0.0;
  for (const double block : sums) p += block;
  return 1.0 / std::sqrt(p);
}

/// The same site as three sweeps: K, the block sums of |a|² and the
/// rescale.
void three_sweep_kraus_site(const kernels::KernelSet& set,
                            AlignedVector<cplx>& amp,
                            const kernels::PreparedGate& g,
                            std::vector<double>& sums) {
  kernels::apply_prepared(set, amp.data(), amp.size(), g);
  const std::uint64_t block = amp.size() / sums.size();
  double p = 0.0;
  for (std::size_t b = 0; b < sums.size(); ++b) {
    double s = 0.0;
    for (std::uint64_t i = b * block; i < (b + 1) * block; ++i)
      s += std::norm(amp[i]);
    p += s;
  }
  const double inv = 1.0 / std::sqrt(p);
  for (cplx& v : amp) v *= inv;
}

/// Time `reps` general-Kraus sites with `set`, fused or as three sweeps;
/// returns amplitudes per second (dim per site).
double time_kraus(const kernels::KernelSet& set, AlignedVector<cplx>& amp,
                  const kernels::PreparedGate& g, std::size_t reps,
                  bool fused) {
  std::vector<double> sums(
      std::max<std::uint64_t>(amp.size() >> kernels::kSliceBits, 1));
  double prescale = 1.0;
  const auto site = [&] {
    if (fused)
      prescale = fused_kraus_site(set, amp, g, prescale, sums);
    else
      three_sweep_kraus_site(set, amp, g, sums);
  };
  site();
  WallTimer timer;
  for (std::size_t r = 0; r < reps; ++r) site();
  const double seconds = timer.seconds();
  return static_cast<double>(amp.size()) * static_cast<double>(reps) / seconds;
}

/// One row per set; `time` gives a set's amplitudes per second.
template <typename Time>
void add_rows(const std::string& op, unsigned n, const Time& time) {
  double scalar_rate = 0.0;
  for (const kernels::KernelSet* set : kernels::available_sets()) {
    AlignedVector<cplx> amp = random_state(n, 99);
    const std::string name = set->name;
    const double rate = time(*set, amp);
    if (name == "scalar") scalar_rate = rate;
    const double speedup = scalar_rate > 0.0 ? rate / scalar_rate : 1.0;
    std::printf("%-22s %-8s %8.1f Mamps/s  %5.2fx\n", op.c_str(), name.c_str(),
                rate / 1e6, speedup);
    kernel_rows.push_back(bench::Object()
                              .add("op", op)
                              .add("set", name)
                              .add("qubits", n)
                              .add("amps_per_second", rate)
                              .add("speedup_vs_scalar", speedup));
  }
}

void run_kernel_case(const std::string& op, const Matrix& m,
                     std::vector<unsigned> qubits, unsigned n,
                     std::size_t reps) {
  const kernels::PreparedGate g = kernels::prepare_gate(m, qubits);
  add_rows(op, n, [&](const kernels::KernelSet& set, AlignedVector<cplx>& amp) {
    return time_kernel(set, amp, g, reps);
  });
}

/// A general-Kraus site's K on `qubits`, fused and as three sweeps.
void run_kraus_case(const std::string& op, const Matrix& k,
                    std::vector<unsigned> qubits, unsigned n,
                    std::size_t reps) {
  const kernels::PreparedGate g = kernels::prepare_gate(k, qubits);
  for (const bool fused : {true, false})
    add_rows(op + (fused ? "/fused" : "/3-sweep"), n,
             [&](const kernels::KernelSet& set, AlignedVector<cplx>& amp) {
               return time_kraus(set, amp, g, reps, fused);
             });
}

/// Best-of-`repeats` wall clock: one trajectory sweep is seconds-long, so a
/// single sample is hostage to scheduler and page-cache noise; the minimum
/// is the standard low-variance estimator for a fixed workload.
double time_pinned(const NoisyCircuit& noisy,
                   const std::vector<TrajectorySpec>& specs,
                   const char* kernel, std::size_t repeats) {
  kernels::set_active(kernel);
  be::Options options;
  options.schedule = be::Schedule::kSharedPrefix;
  options.config.fuse_gates = true;
  double best = 0.0;
  for (std::size_t r = 0; r < repeats; ++r) {
    WallTimer timer;
    const be::Result result = be::execute(noisy, specs, options);
    const double seconds = timer.seconds();
    (void)result;
    if (r == 0 || seconds < best) best = seconds;
  }
  return best;
}

void run_workload_case(const std::string& label, const NoisyCircuit& noisy,
                       std::size_t trajectories, std::uint64_t shots,
                       std::size_t repeats) {
  RngStream rng(1234);
  pts::Options opt;
  opt.nsamples = trajectories;
  opt.nshots = shots;
  opt.merge_duplicates = true;
  const std::vector<TrajectorySpec> specs =
      pts::sample_probabilistic(noisy, opt, rng);

  const double scalar = time_pinned(noisy, specs, "scalar", repeats);
  const double dispatched = time_pinned(
      noisy, specs, kernels::best_available_set().name, repeats);
  kernels::set_active("auto");
  std::printf("%-40s traj=%5zu  scalar %8.3fs  %s %8.3fs  %5.2fx\n",
              label.c_str(), specs.size(), scalar,
              kernels::best_available_set().name, dispatched,
              scalar / dispatched);
  workload_rows.push_back(bench::Object()
                              .add("workload", label)
                              .add("qubits", noisy.num_qubits())
                              .add("trajectories", specs.size())
                              .add("scalar_seconds", scalar)
                              .add("dispatched_seconds", dispatched)
                              .add("speedup", scalar / dispatched));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const bool tiny = args.tiny;

  std::printf("kernel dispatch: %s\n\n", kernels::describe_dispatch().c_str());

  const unsigned n = tiny ? 8 : 18;
  const std::size_t reps = tiny ? 4 : 96;
  RngStream mats(7);
  Matrix u1(2, 2), u2(4, 4);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 2; ++c)
      u1(r, c) = cplx(mats.uniform(0.1, 1.0), mats.uniform(0.1, 1.0));
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      u2(r, c) = cplx(mats.uniform(0.1, 1.0), mats.uniform(0.1, 1.0));

  std::printf("per-kernel throughput (n=%u, %zu sweeps per timing)\n\n", n,
              reps);
  run_kernel_case("dense1q/low(q=0)", u1, {0}, n, reps);
  run_kernel_case("dense1q/mid", u1, {n / 2}, n, reps);
  run_kernel_case("dense1q/high", u1, {n - 1}, n, reps);
  run_kernel_case("dense2q", u2, {n / 2, n / 2 + 1}, n, reps);
  // Low qubits: a stride below the register width gathers its groups
  // with lane shuffles; (2,3) is the first pair whose strides fill a
  // register on every set.
  run_kernel_case("dense2q/low(0,1)", u2, {0, 1}, n, reps);
  run_kernel_case("dense2q/low(1,3)", u2, {1, 3}, n, reps);
  run_kernel_case("dense2q(2,3)", u2, {2, 3}, n, reps);
  run_kernel_case("diag1q(S)", gates::S(), {n / 2}, n, reps * 2);
  run_kernel_case("diag2q(CZ)", gates::CZ(), {1, n - 1}, n, reps * 2);
  run_kernel_case("perm1q(X)", gates::X(), {n / 2}, n, reps * 2);
  run_kernel_case("ctrl1q(CX)", gates::CX(), {0, n - 1}, n, reps * 2);
  run_kernel_case("ctrl1q/low(CX 1,0)", gates::CX(), {1, 0}, n, reps * 2);
  run_kernel_case("ctrl1q(CX 3,2)", gates::CX(), {3, 2}, n, reps * 2);
  // Amplitude damping's no-decay branch: a diagonal K, and nearly every
  // readout site.
  run_kraus_case("kraus(AD no-decay)",
                 channels::amplitude_damping(0.002)->kraus(0), {n / 2}, n,
                 reps);

  const std::uint64_t shots = tiny ? 8 : 64;
  const std::size_t trajectories = tiny ? 20 : 500;
  const std::size_t repeats = tiny ? 1 : 3;
  std::printf("\nend-to-end (shared-prefix + fusion, statevector backend, "
              "best of %zu)\n\n", repeats);
  const std::string ghz = "ghz" + std::to_string(n);
  run_workload_case(ghz + "/high-overlap(readout-noise)",
                    bench::ghz_workload(n, "readout", 0), trajectories, shots,
                    repeats);
  run_workload_case(ghz + "/high-overlap(late-noise)",
                    bench::ghz_workload(n, "late", 4), trajectories, shots,
                    repeats);
  run_workload_case(ghz + "/moderate-overlap(gate-noise)",
                    bench::ghz_workload(n, "all", 0), trajectories, shots,
                    repeats);

  return bench::report("gate_kernels", 1)
                 .add("dispatch", kernels::describe_dispatch())
                 .add("kernel_rows", kernel_rows)
                 .add("workload_rows", workload_rows)
                 .write(args.out)
             ? 0
             : 1;
}

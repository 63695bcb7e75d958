// The gate-fusion pass: fused circuits must be mathematically identical to
// their sources (pinned exactly on known sequences, property-style on
// random circuits), fusion must actually shrink fusable circuits, and a
// plan's step list must never fuse across a measurement or a noise site —
// the boundaries where something observes or perturbs the state
// mid-circuit. Fusion across sites happens in the plan's windows, which a
// spec runs only where it takes every default (identity) branch: the
// window suite below pins their layout, that both schedules run the same
// gates for each spec on every kernel set and thread count, that realised
// probabilities keep their unfused bits, and that window-fused records
// follow the exact density-matrix distribution.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "ptsbe/circuit/fusion.hpp"
#include "ptsbe/common/aligned.hpp"
#include "ptsbe/core/batched_execution.hpp"
#include "ptsbe/core/pts.hpp"
#include "ptsbe/densmat/density_matrix.hpp"
#include "ptsbe/kernels/kernel_set.hpp"
#include "ptsbe/noise/channels.hpp"
#include "ptsbe/statevector/statevector.hpp"
#include "ptsbe/stats/compare.hpp"
#include "ptsbe/stats/shot_table.hpp"

namespace ptsbe {
namespace {

/// |⟨φ|ψ⟩|² between the states a circuit and its fused form prepare.
double fused_fidelity(const Circuit& circuit, const Circuit& fused) {
  StateVector a(circuit.num_qubits());
  a.apply_circuit(circuit);
  StateVector b(fused.num_qubits());
  b.apply_circuit(fused);
  return a.fidelity(b);
}

TEST(Fusion, MergesSingleQubitRuns) {
  Circuit c(1);
  c.h(0).t(0).s(0).h(0);
  const Circuit fused = fuse_circuit(c);
  EXPECT_EQ(fused.gate_count(), 1u);
  EXPECT_NEAR(fused_fidelity(c, fused), 1.0, 1e-12);
}

TEST(Fusion, MergesTwoQubitRunsIncludingReversedPairs) {
  Circuit c(2);
  c.cx(0, 1).cz(0, 1).cx(1, 0);  // same unordered pair throughout
  const Circuit fused = fuse_circuit(c);
  EXPECT_EQ(fused.gate_count(), 1u);
  EXPECT_NEAR(fused_fidelity(
                  Circuit(2).h(0).ry(1, 0.7).append(c),
                  Circuit(2).h(0).ry(1, 0.7).append(fused)),
              1.0, 1e-12);
}

TEST(Fusion, AbsorbsSingleQubitGatesIntoTwoQubitNeighbours) {
  // 1q before the 2q gate, and 1q after it, on both qubits.
  Circuit c(2);
  c.h(0).t(1).cx(0, 1).s(0).h(1);
  const Circuit fused = fuse_circuit(c);
  EXPECT_EQ(fused.gate_count(), 1u);
  EXPECT_NEAR(fused_fidelity(c, fused), 1.0, 1e-12);
}

TEST(Fusion, CommutesPastDisjointSupports) {
  // The two h(0) are separated by ops on qubit 1 only — still one fused op
  // per support.
  Circuit c(2);
  c.h(0).t(1).s(1).h(0);
  const Circuit fused = fuse_circuit(c);
  EXPECT_EQ(fused.gate_count(), 2u);
  EXPECT_NEAR(fused_fidelity(c, fused), 1.0, 1e-12);
}

TEST(Fusion, InverseRunsFuseToIdentity) {
  Circuit c(2);
  c.cx(0, 1).cx(0, 1);
  const Circuit fused = fuse_circuit(c);
  ASSERT_EQ(fused.gate_count(), 1u);
  EXPECT_TRUE(approx_equal(fused.ops()[0].matrix, Matrix::identity(4)));
}

TEST(Fusion, DoesNotCrossMeasurements) {
  Circuit c(1);
  c.h(0).measure(0).h(0);
  const Circuit fused = fuse_circuit(c);
  EXPECT_EQ(fused.gate_count(), 2u);  // the measure op pins the two apart
  EXPECT_EQ(fused.size(), 3u);
  EXPECT_EQ(fused.ops()[1].kind, OpKind::kMeasure);
}

TEST(Fusion, RespectsExplicitBarriers) {
  Circuit c(1);
  c.h(0).h(0);
  const Circuit unbarred = fuse_circuit(c);
  EXPECT_EQ(unbarred.gate_count(), 1u);
  const Circuit barred =
      fuse_circuit(c, [](std::size_t i) { return i == 0; });
  EXPECT_EQ(barred.gate_count(), 2u);
}

TEST(Fusion, ExecPlanStepsStopAtNoiseSitesAndWindowsSpanThem) {
  // Noise after each h(0) splits the step list's segments; the noiseless
  // qubit-1 run still fuses there. The window spans both identity-default
  // sites, so an all-default walk fuses h(0)·h(0) too.
  Circuit c(2);
  c.h(0).h(0).t(1).s(1);
  NoiseModel nm;
  nm.add_gate_noise("h", channels::bit_flip(0.1));
  const NoisyCircuit noisy = nm.apply(c);
  ASSERT_EQ(noisy.num_sites(), 2u);

  const ExecPlan plan = build_exec_plan(noisy, true);
  EXPECT_EQ(plan.site_count, 2u);
  EXPECT_EQ(plan.unfused_gate_count, 4u);
  // Steps: h(0) | site | h(0) | site | t·s(1) fused → 3 gate steps.
  ASSERT_EQ(plan.steps.size(), 5u);
  EXPECT_TRUE(plan.steps[0].is_gate);
  EXPECT_FALSE(plan.steps[1].is_gate);  // the site fires right after h(0)
  EXPECT_TRUE(plan.steps[2].is_gate);
  EXPECT_FALSE(plan.steps[3].is_gate);
  EXPECT_TRUE(plan.steps[4].is_gate);
  // One window over all five steps, two fused gates: h(0)·h(0), t·s(1).
  ASSERT_EQ(plan.prepared_runs.size(), 1u);
  const ExecPlan::PreparedRun& window = plan.prepared_runs[0];
  EXPECT_EQ(window.first_step, 0u);
  EXPECT_EQ(window.end_step, 5u);
  EXPECT_EQ(window.sites, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(window.gates.size(), 2u);
  EXPECT_EQ(plan.gate_count, 2u);
  // Without fusion there is no window and every gate is a step.
  const ExecPlan plain = build_exec_plan(noisy, false);
  EXPECT_EQ(plain.gate_count, 4u);
  for (const ExecPlan::PreparedRun& run : plain.prepared_runs)
    EXPECT_TRUE(run.sites.empty());
}

TEST(Fusion, ExecPlanNeverFusesAcrossMeasurements) {
  // Non-terminal measurement between two h(0): the plan must keep the two
  // gate sweeps apart even though no noise site intervenes.
  Circuit c(1);
  c.h(0).measure(0).h(0);
  const ExecPlan plan = build_exec_plan(NoiseModel().apply(c), true);
  EXPECT_EQ(plan.gate_count, 2u);
  EXPECT_EQ(plan.site_count, 0u);
}

TEST(Fusion, ExecPlanUnfusedMatchesProgramOrder) {
  Circuit c(2);
  c.h(0).cx(0, 1).measure_all();
  NoiseModel nm;
  nm.add_all_gate_noise(channels::depolarizing(0.05));
  const NoisyCircuit noisy = nm.apply(c);
  const ExecPlan plan = build_exec_plan(noisy, false);
  EXPECT_EQ(plan.gate_count, 2u);
  EXPECT_EQ(plan.site_count, noisy.num_sites());
  EXPECT_EQ(plan.unfused_gate_count, plan.gate_count);
}

// Property: random dense circuits fuse to an equivalent, never larger
// program. Mix of parameterised 1q rotations and entanglers on random
// pairs, fused with no barriers.
class FusionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FusionProperty, RandomCircuitsAreInvariantUnderFusion) {
  RngStream rng(GetParam());
  const unsigned n = 5;
  Circuit c(n);
  for (int i = 0; i < 60; ++i) {
    const double r = rng.uniform();
    const unsigned q = static_cast<unsigned>(rng.uniform_index(n));
    if (r < 0.5) {
      switch (rng.uniform_index(4)) {
        case 0: c.rx(q, rng.uniform(0, 6.28)); break;
        case 1: c.ry(q, rng.uniform(0, 6.28)); break;
        case 2: c.rz(q, rng.uniform(0, 6.28)); break;
        default: c.h(q); break;
      }
    } else {
      unsigned p = static_cast<unsigned>(rng.uniform_index(n));
      if (p == q) p = (p + 1) % n;
      if (rng.uniform() < 0.5)
        c.cx(q, p);
      else
        c.cz(q, p);
    }
  }
  const Circuit fused = fuse_circuit(c);
  EXPECT_LE(fused.gate_count(), c.gate_count());
  EXPECT_LT(fused.gate_count(), c.gate_count())
      << "a 60-op dense random circuit should fuse at least once";
  EXPECT_NEAR(fused_fidelity(c, fused), 1.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionProperty,
                         ::testing::Values(7u, 8u, 9u, 10u, 11u, 12u));

// End-to-end: the fuse_gates backend knob must leave sampled distributions
// statistically unchanged (exact equality is not expected — fusion
// reassociates floating-point products).
TEST(Fusion, BackendKnobPreservesDistributions) {
  Circuit c(3);
  c.h(0).cx(0, 1).t(1).cx(1, 2).h(2).measure_all();
  NoiseModel nm;
  nm.add_all_gate_noise(channels::depolarizing(0.02));
  const NoisyCircuit noisy = nm.apply(c);

  TrajectorySpec error_free;
  error_free.shots = 20000;
  error_free.nominal_probability = 1.0;

  be::Options plain;
  be::Options fused;
  fused.config.fuse_gates = true;
  const be::Result a = be::execute(noisy, {error_free}, plain);
  const be::Result b = be::execute(noisy, {error_free}, fused);
  ASSERT_EQ(a.batches.size(), 1u);
  ASSERT_EQ(b.batches.size(), 1u);
  std::array<double, 8> fa{}, fb{};
  for (auto r : a.batches[0].records) fa[r % 8] += 1.0 / 20000;
  for (auto r : b.batches[0].records) fb[r % 8] += 1.0 / 20000;
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(fa[i], fb[i], 0.015) << "outcome " << i;
}

// ---------------------------------------------------------------------------
// Windows: fusion across sites whose default branch is the identity
// ---------------------------------------------------------------------------

/// Six qubits of brickwork, enough gates for several windows, depolarizing
/// after every gate on qubits 0–4; qubit 5 gets no gate, so it stays |0⟩.
/// Readout is amplitude damping (general Kraus: a barrier, and a decay on
/// qubit 5 is unrealizable) or, for a unitary-mixture-only program, bit
/// flips.
NoisyCircuit window_program(bool damping_readout, double p = 0.02) {
  RngStream rng(31);
  Circuit c(6);
  for (unsigned d = 0; d < 24; ++d) {
    for (unsigned q = 0; q < 5; ++q) {
      switch (rng.uniform_index(3)) {
        case 0: c.h(q); break;
        case 1: c.rx(q, rng.uniform(0, 3.1)); break;
        default: c.ry(q, rng.uniform(0, 3.1)); break;
      }
    }
    for (unsigned q = d % 2; q + 1 < 5; q += 2)
      (d % 4 < 2) ? c.cx(q, q + 1) : c.cz(q + 1, q);
  }
  c.measure_all();
  NoiseModel noise;
  noise.add_all_gate_noise(channels::depolarizing(p));
  noise.add_measurement_noise(damping_readout ? channels::amplitude_damping(0.1)
                                              : channels::bit_flip(p));
  return noise.apply(c);
}

/// The plan's windows: its runs that span sites.
std::vector<const ExecPlan::PreparedRun*> windows_of(const ExecPlan& plan) {
  std::vector<const ExecPlan::PreparedRun*> out;
  for (const ExecPlan::PreparedRun& run : plan.prepared_runs)
    if (!run.sites.empty()) out.push_back(&run);
  return out;
}

TEST(FusionWindows, PlanCutsStretchesIntoWindowsBetweenBarriers) {
  const NoisyCircuit noisy = window_program(true);
  const ExecPlan plan = build_exec_plan(noisy, true);
  const auto windows = windows_of(plan);
  ASSERT_GE(windows.size(), 3u);
  std::vector<int> covered(plan.steps.size(), 0);
  std::size_t previous_end = 0;
  for (const ExecPlan::PreparedRun& run : plan.prepared_runs) {
    EXPECT_EQ(plan.run_starting_at(run.first_step),
              static_cast<std::size_t>(&run - plan.prepared_runs.data()));
    EXPECT_GE(run.first_step, previous_end);  // runs never overlap
    previous_end = run.end_step;
    std::size_t gates = 0;
    std::vector<std::size_t> sites;
    for (std::size_t s = run.first_step; s < run.end_step; ++s) {
      ++covered[s];
      const PlanStep& step = plan.steps[s];
      if (step.is_gate) {
        EXPECT_LE(step.qubits.size(), 2u);
        ++gates;
        continue;
      }
      // Only identity-default unitary mixtures: the readout damping and
      // every other barrier stay outside.
      const KrausChannel& ch = *noisy.sites()[step.site].channel;
      EXPECT_TRUE(ch.is_unitary_mixture());
      EXPECT_EQ(ch.default_branch(),
                static_cast<std::size_t>(ch.identity_branch()));
      sites.push_back(step.site);
    }
    EXPECT_EQ(sites, run.sites);
    EXPECT_GT(gates, 0u);
    if (!run.sites.empty()) {
      // A window closes at its first gate step after kWindowGates gates.
      EXPECT_LE(gates, ExecPlan::kWindowGates + 1);
      EXPECT_LE(run.gates.size(), gates);
    }
  }
  // Every 1-/2-qubit gate step lies in exactly one run, and every window
  // but a stretch's last holds at least kWindowGates gates.
  for (std::size_t s = 0; s < plan.steps.size(); ++s) {
    if (plan.steps[s].is_gate) {
      EXPECT_EQ(covered[s], 1) << "step " << s;
    }
  }
  for (std::size_t w = 0; w + 1 < windows.size(); ++w) {
    std::size_t gates = 0;
    for (std::size_t s = windows[w]->first_step; s < windows[w]->end_step; ++s)
      gates += plan.steps[s].is_gate ? 1 : 0;
    EXPECT_GE(gates, ExecPlan::kWindowGates) << "window " << w;
  }
  // An all-default walk sweeps the windows' fused gates: fewer than the
  // program's gates.
  EXPECT_LT(plan.gate_count, plan.unfused_gate_count);
  // A window's fused gates equal its steps with every site at its default
  // branch, to rounding.
  for (const ExecPlan::PreparedRun* window : windows) {
    AlignedVector<cplx> fused(64), stepwise(64);
    RngStream rng(window->first_step);
    for (std::size_t i = 0; i < 64; ++i)
      fused[i] = stepwise[i] = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    const kernels::KernelSet& ks = kernels::scalar_kernel_set();
    for (const kernels::PreparedGate& g : window->gates)
      kernels::apply_prepared(ks, fused.data(), 64, g);
    for (std::size_t s = window->first_step; s < window->end_step; ++s)
      if (plan.steps[s].is_gate)
        kernels::apply_prepared(ks, stepwise.data(), 64,
                                plan.steps[s].prepared);
    for (std::size_t i = 0; i < 64; ++i)
      EXPECT_NEAR(std::abs(fused[i] - stepwise[i]), 0.0, 1e-12);
  }
  // Without fusion no run spans a site.
  const ExecPlan plain = build_exec_plan(noisy, false);
  for (const ExecPlan::PreparedRun& run : plain.prepared_runs)
    EXPECT_TRUE(run.sites.empty());
}

TrajectorySpec spec_of(std::vector<BranchChoice> branches,
                       std::uint64_t shots) {
  std::sort(branches.begin(), branches.end(),
            [](const BranchChoice& a, const BranchChoice& b) {
              return a.site < b.site;
            });
  TrajectorySpec spec;
  spec.branches = std::move(branches);
  spec.shots = shots;
  return spec;
}

/// Specs that leave default branches at a window's first, middle and last
/// site, twice in one window, in two windows, and one that a readout decay
/// of the idle qubit makes unrealizable after the fused windows; beside
/// them, the error-free spec and sampled ones.
std::vector<TrajectorySpec> window_specs(const NoisyCircuit& noisy,
                                         const ExecPlan& plan,
                                         bool damping_readout) {
  const auto windows = windows_of(plan);
  const auto& w0 = windows[0]->sites;
  const auto& w1 = windows[1]->sites;
  const auto& w2 = windows[2]->sites;
  std::vector<TrajectorySpec> specs = {
      spec_of({}, 3000),
      spec_of({{w0.front(), 1}}, 400),
      spec_of({{w1[w1.size() / 2], 2}}, 400),
      spec_of({{w1.back(), 3}}, 400),
      spec_of({{w2[1], 1}, {w2[w2.size() - 2], 3}}, 400),
      spec_of({{w0[3], 2}, {w2.back(), 1}}, 400),
      spec_of({{w1.front(), 1}}, 300),
  };
  if (damping_readout) {
    std::size_t idle = noisy.num_sites(), active = noisy.num_sites();
    for (const NoiseSite& site : noisy.sites()) {
      if (site.channel->is_unitary_mixture()) continue;
      if (site.qubits[0] == 5) idle = site.index;
      if (site.qubits[0] == 2) active = site.index;
    }
    // A decay of |0⟩ has probability 0: unrealizable.
    specs.push_back(spec_of({{w1[2], 1}, {idle, 1}}, 200));
    specs.push_back(spec_of({{active, 1}}, 200));
  }
  RngStream rng(7);
  pts::Options opt;
  opt.nsamples = 120;
  opt.nshots = 50;
  opt.merge_duplicates = true;
  for (TrajectorySpec& spec : pts::sample_probabilistic(noisy, opt, rng))
    specs.push_back(std::move(spec));
  for (TrajectorySpec& spec : specs)
    spec.nominal_probability = 1.0;  // unread by execution
  return specs;
}

void expect_same_bits(const be::Result& a, const be::Result& b,
                      const std::string& label) {
  ASSERT_EQ(a.batches.size(), b.batches.size()) << label;
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    EXPECT_EQ(a.batches[i].spec_index, b.batches[i].spec_index) << label;
    EXPECT_EQ(a.batches[i].records, b.batches[i].records)
        << label << " spec " << i;
    EXPECT_EQ(std::memcmp(&a.batches[i].realized_probability,
                          &b.batches[i].realized_probability, sizeof(double)),
              0)
        << label << " spec " << i;
  }
}

be::Result run_windows(const NoisyCircuit& noisy,
                       const std::vector<TrajectorySpec>& specs,
                       be::Schedule schedule, std::size_t threads, bool fuse) {
  be::Options options;
  options.schedule = schedule;
  options.threads = threads;
  options.config.fuse_gates = fuse;
  return be::execute(noisy, specs, options);
}

TEST(FusionWindows, SchedulesThreadsAndKernelSetsGiveOneResult) {
  const NoisyCircuit noisy = window_program(true);
  const ExecPlan plan = build_exec_plan(noisy, true);
  const std::vector<TrajectorySpec> specs = window_specs(noisy, plan, true);
  const be::Result reference =
      run_windows(noisy, specs, be::Schedule::kIndependent, 1, true);
  // The unrealizable spec: no records, realised probability 0.
  const be::TrajectoryBatch& dead = reference.batches[7];
  EXPECT_EQ(dead.realized_probability, 0.0);
  EXPECT_TRUE(dead.records.empty());
  EXPECT_GT(reference.batches[8].realized_probability, 0.0);
  for (const kernels::KernelSet* set : kernels::available_sets()) {
    kernels::set_active(set->name);
    for (const std::size_t threads : {1u, 4u})
      for (const be::Schedule schedule :
           {be::Schedule::kIndependent, be::Schedule::kSharedPrefix})
        expect_same_bits(
            reference, run_windows(noisy, specs, schedule, threads, true),
            std::string(set->name) + " threads=" + std::to_string(threads) +
                " " + be::to_string(schedule));
  }
  kernels::set_active("auto");
}

TEST(FusionWindows, RealisedProbabilitiesKeepTheirUnfusedBits) {
  const NoisyCircuit noisy = window_program(false);
  const ExecPlan plan = build_exec_plan(noisy, true);
  ASSERT_GE(windows_of(plan).size(), 3u);
  const std::vector<TrajectorySpec> specs = window_specs(noisy, plan, false);
  for (const be::Schedule schedule :
       {be::Schedule::kIndependent, be::Schedule::kSharedPrefix}) {
    const be::Result fused = run_windows(noisy, specs, schedule, 4, true);
    const be::Result plain = run_windows(noisy, specs, schedule, 4, false);
    ASSERT_EQ(fused.batches.size(), plain.batches.size());
    for (std::size_t i = 0; i < fused.batches.size(); ++i)
      EXPECT_EQ(std::memcmp(&fused.batches[i].realized_probability,
                            &plain.batches[i].realized_probability,
                            sizeof(double)),
                0)
          << "spec " << i;
  }
}

/// Upper 1 − α quantile of chi-squared with `df` degrees of freedom
/// (Wilson–Hilferty), α = 1e-6 (z = 4.7534).
double chi2_critical(double df) {
  constexpr double kZ = 4.7534;
  const double a = 2.0 / (9.0 * df);
  return df * std::pow(1.0 - a + kZ * std::sqrt(a), 3.0);
}

// Window-fused records against the exact density-matrix distribution: a
// Pearson chi-squared test at a false-failure rate of 1e-6. Specs are
// Algorithm 2 draws of one shot each, merged, so the records are
// independent draws from the exact distribution of a unitary-mixture
// program. Outcomes expecting fewer than 5 records are pooled into one
// cell.
TEST(FusionWindows, FusedRecordsFollowTheExactDistribution) {
  const NoisyCircuit noisy = window_program(false, 0.01);
  ASSERT_GE(windows_of(build_exec_plan(noisy, true)).size(), 3u);
  DensityMatrix exact(noisy.num_qubits());
  exact.apply_noisy_circuit(noisy);
  const std::vector<double> probabilities = exact.probabilities();

  RngStream rng(2024);
  pts::Options opt;
  opt.nsamples = 40000;
  opt.nshots = 1;
  opt.merge_duplicates = true;
  const std::vector<TrajectorySpec> specs =
      pts::sample_probabilistic(noisy, opt, rng);
  const be::Result result =
      run_windows(noisy, specs, be::Schedule::kSharedPrefix, 4, true);

  stats::ShotTable records;
  for (const be::TrajectoryBatch& batch : result.batches)
    records.add_batch(batch);
  const double n = records.total();
  ASSERT_EQ(n, 40000.0);
  constexpr std::uint64_t kPooled = ~std::uint64_t{0};
  const auto cell = [&](std::uint64_t record) {
    return n * probabilities[record] >= 5.0 ? record : kPooled;
  };
  stats::ShotTable observed, expected;
  for (std::uint64_t r = 0; r < probabilities.size(); ++r)
    expected.add(cell(r), n * probabilities[r]);
  for (const auto& [record, weight] : records.entries())
    observed.add(cell(record), weight);
  const double chi2 = stats::compare(observed, expected).chi_squared_cost;
  const double df = static_cast<double>(expected.distinct()) - 1.0;
  EXPECT_LE(chi2, chi2_critical(df)) << "df " << df;
}

}  // namespace
}  // namespace ptsbe

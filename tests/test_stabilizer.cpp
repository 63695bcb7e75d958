// Tests for the Clifford tableau, the Pauli-frame bulk sampler and the
// stabilizer backend's trajectory state, including cross-validation against
// the statevector backend.

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ptsbe/core/batched_execution.hpp"
#include "ptsbe/core/pts.hpp"
#include "ptsbe/noise/channels.hpp"
#include "ptsbe/qec/workload.hpp"
#include "ptsbe/stabilizer/pauli_frame.hpp"
#include "ptsbe/stabilizer/stabilizer_state.hpp"
#include "ptsbe/stabilizer/tableau.hpp"
#include "ptsbe/statevector/statevector.hpp"
#include "ptsbe/trajectory/trajectory.hpp"

namespace ptsbe {
namespace {

TEST(Tableau, InitialStabilizersAreZ) {
  CliffordTableau t(3);
  EXPECT_EQ(t.stabilizer_row(0), "+ZII");
  EXPECT_EQ(t.stabilizer_row(1), "+IZI");
  EXPECT_EQ(t.stabilizer_row(2), "+IIZ");
}

TEST(Tableau, HadamardMapsZToX) {
  CliffordTableau t(1);
  t.h(0);
  EXPECT_EQ(t.stabilizer_row(0), "+X");
}

TEST(Tableau, BellStateStabilizers) {
  CliffordTableau t(2);
  t.h(0);
  t.cx(0, 1);
  EXPECT_EQ(t.stabilizer_row(0), "+XX");
  EXPECT_EQ(t.stabilizer_row(1), "+ZZ");
}

TEST(Tableau, XFlipsMeasurement) {
  CliffordTableau t(1);
  t.x(0);
  RngStream rng(1);
  bool det = false;
  EXPECT_EQ(t.measure(0, rng, &det), 1u);
  EXPECT_TRUE(det);
}

TEST(Tableau, SOnPlusGivesY) {
  CliffordTableau t(1);
  t.h(0);
  t.s(0);
  EXPECT_EQ(t.stabilizer_row(0), "+Y");
  t.sdg(0);
  EXPECT_EQ(t.stabilizer_row(0), "+X");
}

TEST(Tableau, SqrtGatesMatchDecompositions) {
  // sx = h s h ⇒ sx|0> has stabilizer -Y (since SX Z SX† = -Y... verify via
  // statevector instead: both tableau and sv measure the same distribution).
  CliffordTableau t(1);
  t.sx(0);
  RngStream rng(3);
  int ones = 0;
  for (int i = 0; i < 200; ++i) {
    CliffordTableau fresh(1);
    fresh.sx(0);
    RngStream r2(1000 + i);
    ones += fresh.measure(0, r2);
  }
  EXPECT_NEAR(ones / 200.0, 0.5, 0.12);  // sqrt(X)|0> is equatorial
}

TEST(Tableau, MeasurementCollapseIsSticky) {
  RngStream rng(7);
  CliffordTableau t(1);
  t.h(0);
  const unsigned first = t.measure(0, rng);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(t.measure(0, rng), first);
}

TEST(Tableau, BellCorrelations) {
  for (int trial = 0; trial < 20; ++trial) {
    CliffordTableau t(2);
    RngStream rng(100 + trial);
    t.h(0);
    t.cx(0, 1);
    const unsigned a = t.measure(0, rng);
    bool det = false;
    const unsigned b = t.measure(1, rng, &det);
    EXPECT_TRUE(det);
    EXPECT_EQ(a, b);
  }
}

TEST(Tableau, GhzRandomButCorrelated) {
  int ones = 0;
  for (int trial = 0; trial < 400; ++trial) {
    CliffordTableau t(3);
    RngStream rng(500 + trial);
    t.h(0);
    t.cx(0, 1);
    t.cx(1, 2);
    const unsigned a = t.measure(0, rng);
    EXPECT_EQ(t.measure(1, rng), a);
    EXPECT_EQ(t.measure(2, rng), a);
    ones += a;
  }
  EXPECT_NEAR(ones / 400.0, 0.5, 0.08);
}

TEST(Tableau, NamedGateDispatchRejectsNonClifford) {
  CliffordTableau t(1);
  EXPECT_THROW(t.apply_named("t", {0}), precondition_error);
  EXPECT_TRUE(CliffordTableau::is_clifford_name("cz"));
  EXPECT_FALSE(CliffordTableau::is_clifford_name("rx"));
}

TEST(Tableau, CzViaHAndCx) {
  CliffordTableau t(2);
  t.h(0);
  t.h(1);
  t.cz(0, 1);
  // |++> under CZ: stabilizers X⊗Z... → XZ and ZX.
  EXPECT_EQ(t.stabilizer_row(0), "+XZ");
  EXPECT_EQ(t.stabilizer_row(1), "+ZX");
}

// --- Pauli-frame sampler --------------------------------------------------

NoisyCircuit bell_with_noise(double p) {
  Circuit c(2);
  c.h(0).cx(0, 1).measure_all();
  NoiseModel nm;
  nm.add_all_gate_noise(channels::depolarizing(p));
  return nm.apply(c);
}

TEST(PauliFrame, SupportsCliffordPauliOnly) {
  EXPECT_TRUE(PauliFrameSampler::is_supported(bell_with_noise(0.05)));
  Circuit c(1);
  c.t(0);
  NoiseModel nm;
  nm.add_all_gate_noise(channels::depolarizing(0.05));
  EXPECT_FALSE(PauliFrameSampler::is_supported(nm.apply(c)));
  Circuit c2(1);
  c2.h(0);
  NoiseModel nm2;
  nm2.add_all_gate_noise(channels::amplitude_damping(0.1));
  EXPECT_FALSE(PauliFrameSampler::is_supported(nm2.apply(c2)));
}

TEST(PauliFrame, NoiselessBellIsPerfectlyCorrelated) {
  const NoisyCircuit noisy = bell_with_noise(0.0);
  PauliFrameSampler sampler(noisy, RngStream(9));
  RngStream rng(10);
  const auto records = sampler.sample(2000, rng);
  for (std::uint64_t r : records) {
    const unsigned a = r & 1, b = (r >> 1) & 1;
    EXPECT_EQ(a, b);
  }
}

TEST(PauliFrame, MatchesStatevectorTrajectoriesOnNoisyBell) {
  // Distribution check: frame sampling vs exact density-matrix marginals
  // computed via statevector averaging over explicit branch enumeration is
  // heavy; instead compare to the frame-free expectation: for depolarizing
  // noise on a Bell pair, P(a != b) is analytically p-dependent; just check
  // anticorrelation rate is significantly nonzero and < 0.5.
  const double p = 0.2;
  const NoisyCircuit noisy = bell_with_noise(p);
  PauliFrameSampler sampler(noisy, RngStream(11));
  RngStream rng(12);
  const auto records = sampler.sample(20000, rng);
  double mismatch = 0;
  for (std::uint64_t r : records) mismatch += ((r & 1) != ((r >> 1) & 1));
  mismatch /= records.size();
  EXPECT_GT(mismatch, 0.05);
  EXPECT_LT(mismatch, 0.45);
}

TEST(PauliFrame, RandomOutcomesAreRandomisedAcrossShots) {
  // GHZ without noise: each shot must independently land on 000… or 111…
  // with probability 1/2 — this requires the random initial Z-frame (a
  // single reference sample alone would freeze the outcome).
  Circuit c(3);
  c.h(0).cx(0, 1).cx(1, 2).measure_all();
  const NoisyCircuit noisy = NoiseModel{}.apply(c);
  PauliFrameSampler sampler(noisy, RngStream(17));
  RngStream rng(18);
  const auto records = sampler.sample(20000, rng);
  double ones = 0;
  for (std::uint64_t r : records) {
    ASSERT_TRUE(r == 0 || r == 0b111) << r;
    ones += (r == 0b111);
  }
  EXPECT_NEAR(ones / records.size(), 0.5, 0.02);
}

TEST(PauliFrame, AgreesWithDensityMatrixOnCliffordWorkload) {
  // Full distribution check against exact marginals via the statevector
  // trajectory route is covered elsewhere; here compare against the
  // Algorithm-1 statevector baseline on a 4-qubit Clifford+Pauli workload.
  Circuit c(4);
  c.h(0).cx(0, 1).s(1).cx(1, 2).cz(2, 3).h(3).measure_all();
  NoiseModel nm;
  nm.add_all_gate_noise(channels::depolarizing(0.05));
  const NoisyCircuit noisy = nm.apply(c);
  PauliFrameSampler sampler(noisy, RngStream(19));
  RngStream rng_f(20), rng_t(21);
  const auto frame_records = sampler.sample(40000, rng_f);
  // Statevector trajectory reference.
  std::map<std::uint64_t, double> ff, ft;
  for (auto r : frame_records) ff[r] += 1.0 / frame_records.size();
  {
    const auto result = traj::run_statevector(noisy, 40000, rng_t);
    for (auto r : result.records) ft[r] += 1.0 / result.records.size();
  }
  double tvd = 0;
  for (std::uint64_t i = 0; i < 16; ++i) {
    const double a = ff.count(i) ? ff[i] : 0.0;
    const double b = ft.count(i) ? ft[i] : 0.0;
    tvd += std::abs(a - b);
  }
  EXPECT_LT(tvd / 2, 0.02);
}

TEST(PauliFrame, ReadoutNoiseFlipsBits) {
  Circuit c(1);
  c.measure(0);
  NoiseModel nm;
  nm.add_measurement_noise(channels::bit_flip(0.25));
  const NoisyCircuit noisy = nm.apply(c);
  ASSERT_TRUE(PauliFrameSampler::is_supported(noisy));
  PauliFrameSampler sampler(noisy, RngStream(13));
  RngStream rng(14);
  const auto records = sampler.sample(40000, rng);
  double ones = 0;
  for (std::uint64_t r : records) ones += r & 1;
  EXPECT_NEAR(ones / records.size(), 0.25, 0.01);
}

TEST(PauliFrame, BulkEqualsManyIndependentFrames) {
  // Word-packing must not correlate shots: adjacent shots in one word are
  // independent — check pairwise mismatch frequency of neighbouring shots
  // equals 2q(1-q) for a bit-flip channel.
  Circuit c(1);
  c.measure(0);
  NoiseModel nm;
  nm.add_measurement_noise(channels::bit_flip(0.5));
  PauliFrameSampler sampler(nm.apply(c), RngStream(15));
  RngStream rng(16);
  const auto records = sampler.sample(40000, rng);
  double mismatch = 0;
  for (std::size_t i = 0; i + 1 < records.size(); i += 2)
    mismatch += ((records[i] & 1) != (records[i + 1] & 1));
  EXPECT_NEAR(mismatch / (records.size() / 2), 0.5, 0.02);
}

// ---------------------------------------------------------------------------
// The stabilizer backend through Batched Execution, against a written-out
// reference.
// ---------------------------------------------------------------------------

struct StabilizerReference {
  std::vector<std::uint64_t> records;
  double realized = 1.0;
};

/// One spec the reference way: the spec's Clifford circuit with each site's
/// branch Paulis inlined at the site and every measurement at its program
/// position, reference-simulated on a seed drawn from `rng`, then
/// bulk-sampled from `rng`.
StabilizerReference stabilizer_reference(const NoisyCircuit& noisy,
                                         const TrajectorySpec& spec,
                                         RngStream rng) {
  StabilizerReference out;
  const std::vector<std::size_t> assignment = full_assignment(noisy, spec);
  Circuit derived(noisy.num_qubits());
  const auto inline_site = [&](std::size_t id) {
    const NoiseSite& site = noisy.sites()[id];
    const KrausChannel& ch = *site.channel;
    const std::size_t branch = assignment[id];
    std::vector<std::pair<bool, bool>> toggles;
    EXPECT_TRUE(pauli_toggles(ch.unitary(branch), ch.arity(), toggles));
    for (std::size_t k = 0; k < toggles.size(); ++k) {
      const auto [x, z] = toggles[k];
      const unsigned q = site.qubits[k];
      if (x && z)
        derived.y(q);
      else if (x)
        derived.x(q);
      else if (z)
        derived.z(q);
    }
    out.realized *= ch.nominal_probabilities()[branch];
  };
  for (std::size_t id : noisy.sites_after(NoiseSite::kBeforeCircuit))
    inline_site(id);
  const auto& ops = noisy.circuit().ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == OpKind::kMeasure) {
      for (std::size_t id : noisy.sites_after(i)) inline_site(id);
      derived.measure(ops[i].qubits.front());
      continue;
    }
    derived.gate(ops[i].name, ops[i].matrix, ops[i].qubits, ops[i].params);
    for (std::size_t id : noisy.sites_after(i)) inline_site(id);
  }
  const PauliFrameSampler sampler(NoiseModel().apply(derived),
                                  RngStream(rng.bits64()));
  out.records = sampler.sample(spec.shots, rng);
  return out;
}

/// PTS-sampled specs of `noisy`, plus the error-free spec at 0 and 1 shots.
std::vector<TrajectorySpec> stabilizer_specs(const NoisyCircuit& noisy) {
  RngStream rng(97);
  pts::Options opt;
  opt.nsamples = 60;
  opt.nshots = 33;
  opt.merge_duplicates = true;
  std::vector<TrajectorySpec> specs = pts::sample_probabilistic(noisy, opt, rng);
  for (const std::uint64_t shots : {0u, 1u}) {
    TrajectorySpec spec;
    spec.shots = shots;
    specs.push_back(spec);
  }
  return specs;
}

void expect_stabilizer_matches_reference(const NoisyCircuit& noisy) {
  const std::vector<TrajectorySpec> specs = stabilizer_specs(noisy);
  ASSERT_GT(specs.size(), 4u);
  be::Options options;
  options.backend = "stabilizer";
  const RngStream master(options.seed);
  std::vector<StabilizerReference> expected;
  for (std::size_t t = 0; t < specs.size(); ++t)
    expected.push_back(
        stabilizer_reference(noisy, specs[t], master.substream(t)));
  for (const be::Schedule schedule :
       {be::Schedule::kIndependent, be::Schedule::kSharedPrefix}) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE("schedule=" + be::to_string(schedule) +
                   " threads=" + std::to_string(threads));
      options.schedule = schedule;
      options.threads = threads;
      const be::Result result = be::execute(noisy, specs, options);
      ASSERT_EQ(result.batches.size(), specs.size());
      for (std::size_t t = 0; t < specs.size(); ++t) {
        EXPECT_EQ(result.batches[t].records, expected[t].records)
            << "spec " << t;
        EXPECT_EQ(result.batches[t].realized_probability,
                  expected[t].realized)
            << "spec " << t;
      }
    }
  }
}

TEST(StabilizerBackend, MatchesInlinedReferenceUnderBothSchedules) {
  {
    SCOPED_TRACE("surface d3 memory, X basis");
    qec::MemoryWorkloadConfig cfg;
    cfg.code = "surface";
    cfg.distance = 3;
    cfg.rounds = 2;
    cfg.basis = qec::CssBasis::kX;
    cfg.noise = 0.02;
    expect_stabilizer_matches_reference(qec::make_memory_workload(cfg).noisy);
  }
  {
    SCOPED_TRACE("every named Clifford, two-qubit and state-prep noise");
    Circuit c(5);
    c.h(0).s(1).sdg(2).sx(3).sxdg(4).sy(0).sydg(1).x(2).y(3).z(4);
    c.gate("i", gates::I(), {0});
    c.cx(0, 1).cz(1, 2).swap(2, 3).cx(3, 4).h(4).measure(4);
    c.cx(0, 2).cz(1, 3).h(1).measure(2).measure(0).measure(3).measure(1);
    NoiseModel nm;
    nm.add_state_prep_noise(channels::bit_flip(0.1));
    nm.add_gate_noise("cx", channels::depolarizing2(0.06));
    nm.add_gate_noise("cz", channels::correlated_xx_zz(0.08));
    nm.add_gate_noise("h", channels::depolarizing(0.05));
    nm.add_measurement_noise(channels::bit_flip(0.04));
    expect_stabilizer_matches_reference(nm.apply(c));
  }
  {
    SCOPED_TRACE("no measure ops: every qubit recorded");
    Circuit c(4);
    c.h(0).cx(0, 1).s(1).cx(1, 2).sx(3).cz(2, 3);
    NoiseModel nm;
    nm.add_all_gate_noise(channels::depolarizing(0.05));
    expect_stabilizer_matches_reference(nm.apply(c));
  }
  {
    SCOPED_TRACE("70 qubits, 41 recorded");
    Circuit c(70);
    c.h(0);
    for (unsigned q = 0; q + 1 < 70; ++q) c.cx(q, q + 1);
    c.x(65).h(69);
    for (unsigned q = 60; q + 1 > 20; --q) c.measure(q);
    NoiseModel nm;
    nm.add_gate_noise("cx", channels::bit_flip(0.01));
    expect_stabilizer_matches_reference(nm.apply(c));
  }
}

TEST(StabilizerState, RecognisesCliffordsAndPaulisAndRefusesTheRest) {
  StabilizerState state(2);
  state.apply_gate(gates::H(), std::array{0u});
  state.apply_gate(gates::CX(), std::array{0u, 1u});
  state.apply_gate(kron(gates::Z(), gates::X()), std::array{0u, 1u});
  EXPECT_THROW(state.apply_gate(gates::T(), std::array{0u}),
               precondition_error);
  EXPECT_THROW((void)state.apply_kraus_branch(gates::X(), std::array{0u}),
               precondition_error);
  // H, CX, then X on qubit 0 (the matrix LSB) and Z on qubit 1: a Bell
  // pair with one bit flipped, so the records are 01 or 10.
  RngStream rng(5);
  const std::vector<std::uint64_t> records =
      state.sample_records(200, rng, std::vector<unsigned>{0, 1});
  for (const std::uint64_t r : records) EXPECT_TRUE(r == 1 || r == 2) << r;
}

// Admission reads each gate's matrix, not only its name: a gate named "h"
// whose matrix is RZ(pi/4) is outside the fragment, so supports() refuses
// the program and execute() throws the refusal before any trajectory runs,
// instead of the walk throwing on the gate mid-run.
TEST(StabilizerBackend, AdmitsGatesByTheirMatrices) {
  Circuit disguised(2);
  disguised.gate("h", gates::RZ(0.7853981633974483), {0});
  disguised.cx(0, 1).measure_all();
  const NoisyCircuit noisy = NoiseModel().apply(disguised);
  EXPECT_FALSE(make_backend("stabilizer")->supports(noisy));
  TrajectorySpec spec;
  spec.shots = 4;
  be::Options options;
  options.backend = "stabilizer";
  try {
    (void)be::execute(noisy, {spec}, options);
    FAIL() << "expected precondition_error";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("does not support"),
              std::string::npos)
        << e.what();
  }
  // The same names with their own matrices are admitted.
  Circuit plain(2);
  plain.gate("h", gates::H(), {0});
  plain.gate("x", gates::X(), {1});
  plain.cx(0, 1).measure_all();
  EXPECT_TRUE(make_backend("stabilizer")->supports(NoiseModel().apply(plain)));
  EXPECT_TRUE(StabilizerState::can_record(gates::SWAP(), 2));
  EXPECT_FALSE(StabilizerState::can_record(gates::T(), 1));
  EXPECT_FALSE(StabilizerState::can_record(gates::H(), 2));
}

}  // namespace
}  // namespace ptsbe

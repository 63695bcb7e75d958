// Integration tests: full paper workloads end to end across module
// boundaries — PTS → BE → decode on the encoded MSD circuits, importance
// weighting for general channels, and cross-backend consistency at the
// 35-qubit scale the statevector cannot reach on this host.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "ptsbe/core/batched_execution.hpp"
#include "ptsbe/core/dataset.hpp"
#include "ptsbe/core/pts.hpp"
#include "ptsbe/densmat/density_matrix.hpp"
#include "ptsbe/noise/channels.hpp"
#include "ptsbe/qec/decoder.hpp"
#include "ptsbe/qec/distillation.hpp"
#include "ptsbe/trajectory/trajectory.hpp"
#include "temp_file.hpp"

namespace ptsbe {
namespace {

TEST(Integration, ThirtyFiveQubitEncodedMsdOnMps) {
  // The paper's Fig. 4 workload (35 qubits) runs end to end on the MPS
  // backend: five Steane-encoded magic states, transversal [[5,1,3]]
  // decoder, transversal readout, PTS + BE, then logical decoding of the
  // four syndrome blocks.
  const qec::CssCode code = qec::steane();
  Circuit circuit = qec::encoded_msd_circuit(code);
  ASSERT_EQ(circuit.num_qubits(), 35u);
  NoiseModel nm;
  nm.add_all_gate_noise(channels::depolarizing(0.001));
  const NoisyCircuit noisy = nm.apply(circuit);

  RngStream rng(1);
  pts::Options opt;
  opt.nsamples = 6;
  opt.nshots = 400;
  opt.merge_duplicates = true;
  const auto specs = pts::sample_probabilistic(noisy, opt, rng);

  be::Options exec;
  exec.backend = "mps";
  exec.config.mps.max_bond = 64;
  const be::Result result = be::execute(noisy, specs, exec);
  ASSERT_GT(result.total_shots(), 0u);

  // Decode: acceptance = all four syndrome blocks read logical 0. With
  // ideal inputs acceptance ≈ 1/6 (BK05); with p=1e-3 noise it stays in
  // that neighbourhood.
  const qec::LookupDecoder decoder(code.z_supports, code.n, 1);
  double accepted = 0, total = 0, weight_sum = 0, weighted_accept = 0;
  for (const auto& batch : result.batches) {
    for (auto record : batch.records) {
      bool ok = true;
      for (unsigned b = 0; b < 4 && ok; ++b) {
        const std::uint64_t block_bits = (record >> (b * 7)) & 0x7F;
        ok = qec::decode_readout(code, qec::CssBasis::kZ, decoder,
                                 block_bits) == 0;
      }
      accepted += ok;
      total += 1;
      weighted_accept += ok * batch.spec.nominal_probability;
      weight_sum += batch.spec.nominal_probability;
    }
  }
  const double rate = accepted / total;
  EXPECT_GT(rate, 0.08);
  EXPECT_LT(rate, 0.30);
}

TEST(Integration, EncodedMsdLogicalOutputIsMagicOnMps) {
  // Noiseless encoded MSD, post-selected: the output block's logical Bloch
  // vector must sit on the magic axis. Checked via logical expectation
  // values on the MPS (35 qubits).
  const qec::CssCode code = qec::steane();
  Circuit circuit = qec::msd_preparation_circuit(code);
  circuit.append(qec::compile_transversal(
      qec::synthesize_decoder(qec::five_qubit_code()), code));
  MpsState mps(35);
  mps.apply_circuit(circuit);

  // Project syndrome blocks 0..3 onto logical 0 by measuring-with-postselect
  // is expensive on MPS; instead verify the *unconditioned* logical Bloch of
  // block 4 is nonzero along the magic axis and that shots decode sensibly.
  RngStream rng(3);
  const auto shots = mps.sample_records(3000, rng, {});
  const qec::LookupDecoder decoder(code.z_supports, code.n, 1);
  const auto block_value = [&](std::uint64_t record, unsigned b) {
    return qec::decode_readout(code, qec::CssBasis::kZ, decoder,
                               (record >> (b * 7)) & 0x7F);
  };
  std::size_t accepted = 0, output_ones = 0;
  for (auto record : shots) {
    bool ok = true;
    for (unsigned b = 0; b < 4 && ok; ++b) ok = block_value(record, b) == 0;
    if (!ok) continue;
    ++accepted;
    output_ones += block_value(record, 4);
  }
  ASSERT_GT(accepted, 100u);
  // Accepted output: a T-type state up to the protocol's known Clifford
  // correction (BK05), so |⟨Z̄⟩| = 1/√3 ⇒ P(1) ∈ {(1∓1/√3)/2}.
  const double p1 = static_cast<double>(output_ones) / accepted;
  EXPECT_NEAR(std::abs(1.0 - 2.0 * p1), 1.0 / std::sqrt(3.0), 0.06);
}

TEST(Integration, ImportanceWeightsRecoverGeneralKrausExpectations) {
  // For general (non-unitary-mixture) channels, PTS samples by nominal
  // probability and BE records the realised probability. The correctly
  // weighted estimator uses realized/nominal importance ratios; verify it
  // reproduces the exact density-matrix distribution.
  Circuit c(2);
  c.h(0).cx(0, 1).measure_all();
  NoiseModel nm;
  nm.add_all_gate_noise(channels::amplitude_damping(0.3));
  const NoisyCircuit noisy = nm.apply(c);
  DensityMatrix dm(2);
  dm.apply_noisy_circuit(noisy);
  const auto exact = dm.probabilities();

  // Enumerate ALL trajectories (one damping site per gate target: 3 sites
  // here, 2 branches each = 8 assignments). Some are unrealizable (a decay
  // after the qubit already decayed) — BE marks those with
  // realized_probability 0 and no records.
  ASSERT_EQ(noisy.num_sites(), 3u);
  std::vector<TrajectorySpec> specs;
  for (std::size_t mask = 0; mask < 8; ++mask) {
    TrajectorySpec s;
    for (std::size_t site = 0; site < 3; ++site)
      if ((mask >> site) & 1) s.branches.push_back({site, 1});
    s.shots = 40000;
    specs.push_back(s);
  }
  const be::Result result = be::execute(noisy, specs);
  // Weight each batch by its realised probability (the true trajectory
  // probability for general channels).
  std::map<std::uint64_t, double> f;
  double wsum = 0;
  for (const auto& batch : result.batches) {
    const double w = batch.realized_probability;
    wsum += w;
    if (batch.records.empty()) {
      EXPECT_EQ(w, 0.0);
      continue;
    }
    for (auto r : batch.records)
      f[r] += w / static_cast<double>(batch.records.size());
  }
  EXPECT_NEAR(wsum, 1.0, 1e-9);  // branches partition probability space
  double tvd = 0;
  for (std::uint64_t i = 0; i < 4; ++i)
    tvd += std::abs((f.count(i) ? f[i] : 0.0) - exact[i]);
  EXPECT_LT(tvd / 2, 0.01);
}

TEST(Integration, BandSamplingIsConsistentWithEnumeration) {
  // Trajectories found by stochastic sampling inside a probability band
  // must be a subset of the exhaustive enumeration restricted to the band.
  Circuit c(3);
  c.h(0).cx(0, 1).cx(1, 2);
  NoiseModel nm;
  nm.add_all_gate_noise(channels::depolarizing(0.05));
  const NoisyCircuit noisy = nm.apply(c);

  const auto all = pts::enumerate_most_likely(noisy, 1e-9, 1);
  std::map<std::uint64_t, double> enumerated;
  for (const auto& s : all) enumerated[s.assignment_hash()] = s.nominal_probability;

  RngStream rng(5);
  pts::Options opt;
  opt.nsamples = 3000;
  auto sampled = pts::sample_probabilistic(noisy, opt, rng);
  const auto banded = pts::filter_band(std::move(sampled), 1e-5, 1e-2);
  for (const auto& s : banded) {
    const auto it = enumerated.find(s.assignment_hash());
    ASSERT_NE(it, enumerated.end());
    EXPECT_NEAR(it->second, s.nominal_probability, 1e-12);
  }
}

TEST(Integration, DatasetRoundTripAtScale) {
  // 35-qubit MPS dataset with provenance, written and re-read.
  const NoisyCircuit noisy = [&] {
    Circuit c = qec::msd_preparation_circuit(qec::steane());
    c.measure_all();
    NoiseModel nm;
    nm.add_all_gate_noise(channels::depolarizing(0.002));
    return nm.apply(c);
  }();
  RngStream rng(7);
  pts::Options opt;
  opt.nsamples = 4;
  opt.nshots = 250;
  opt.merge_duplicates = true;
  const auto specs = pts::sample_probabilistic(noisy, opt, rng);
  be::Options exec;
  exec.backend = "mps";
  exec.config.mps.max_bond = 32;
  const auto result = be::execute(noisy, specs, exec);
  const auto path = test::temp_file("integration_dataset.bin");
  dataset::write_binary(path, result);
  const auto loaded = dataset::read_binary(path);
  EXPECT_EQ(loaded.total_shots(), result.total_shots());
  for (std::size_t i = 0; i < loaded.batches.size(); ++i)
    EXPECT_TRUE(loaded.batches[i].spec.same_assignment(result.batches[i].spec));
}

TEST(Integration, TrajectoryBaselineAgreesWithPtsbeOnMsd) {
  // Same bare-MSD noisy program through Algorithm 1 and through PTS+BE:
  // acceptance rates must agree.
  Circuit circuit = qec::bare_msd_circuit();
  NoiseModel nm;
  nm.add_gate_noise("p", channels::depolarizing(0.05));
  const NoisyCircuit noisy = nm.apply(circuit);

  RngStream rng_a(8);
  const auto base = traj::run_statevector(noisy, 30000, rng_a);
  double base_accept = 0;
  for (auto r : base.records) base_accept += qec::bare_msd_accept(r);
  base_accept /= base.records.size();

  RngStream rng_b(9);
  pts::Options opt;
  opt.nsamples = 30000;
  opt.nshots = 1;
  opt.merge_duplicates = true;
  const auto specs = pts::sample_probabilistic(noisy, opt, rng_b);
  const auto result = be::execute(noisy, specs);
  double pts_accept = 0;
  for (const auto& batch : result.batches)
    for (auto r : batch.records) pts_accept += qec::bare_msd_accept(r);
  pts_accept /= result.total_shots();

  EXPECT_NEAR(base_accept, pts_accept, 0.012);
}

}  // namespace
}  // namespace ptsbe

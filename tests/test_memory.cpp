// Tests for the syndrome-extraction memory experiments: noiseless rounds
// are silent and error-free, noisy rounds produce decodable data, and the
// Pauli-frame sampler and PTSBE agree on the logical error rate — the
// head-to-head workload where the Stim-like baseline and PTSBE overlap.

#include <gtest/gtest.h>

#include <cmath>

#include "ptsbe/core/batched_execution.hpp"
#include "ptsbe/core/estimator.hpp"
#include "ptsbe/core/pts.hpp"
#include "ptsbe/noise/channels.hpp"
#include "ptsbe/qec/memory.hpp"
#include "ptsbe/stabilizer/pauli_frame.hpp"

namespace ptsbe::qec {
namespace {

TEST(Memory, CircuitShape) {
  const CssCode code = steane();
  const MemoryExperiment exp = make_memory_experiment(code, 2);
  EXPECT_EQ(exp.ancillas_per_round, 6u);
  EXPECT_EQ(exp.circuit.num_qubits(), 7u + 2u * 6u);
  EXPECT_EQ(exp.circuit.measured_qubits().size(), 12u + 7u);
  EXPECT_EQ(exp.data_bit(0), 12u);
}

TEST(Memory, NoiselessRoundsAreTriviallySilent) {
  // Noiseless |0_L⟩ memory: every ancilla reads 0, data decodes to logical 0.
  const CssCode code = steane();
  const MemoryExperiment exp = make_memory_experiment(code, 2);
  const NoisyCircuit noisy = NoiseModel{}.apply(exp.circuit);
  ASSERT_TRUE(PauliFrameSampler::is_supported(noisy));
  PauliFrameSampler sampler(noisy, RngStream(1));
  RngStream rng(2);
  const auto records = sampler.sample(2000, rng);
  const LookupDecoder decoder(code.z_supports, code.n, 1);
  for (std::uint64_t r : records) {
    EXPECT_EQ(r & 0xFFF, 0u) << "ancilla fired without noise";
    EXPECT_EQ(decode_memory_shot(exp, decoder, r), 0u);
  }
}

TEST(Memory, SingleDataXErrorTripsTheExpectedChecks) {
  // Inject a deterministic X on data qubit 0 before extraction: exactly the
  // Z-type checks containing qubit 0 fire, and the decoder still reads 0.
  const CssCode code = steane();
  MemoryExperiment exp = make_memory_experiment(code, 1);
  Circuit with_error(exp.circuit.num_qubits());
  // Encoder is ops[0..k); find the boundary = first op touching an ancilla.
  // Simpler: prepend the error by rebuilding — encode, X(0), then rest.
  // The encoder was appended first, so inject after the last encoder gate:
  const Circuit encoder = synthesize_encoder(code);
  std::size_t idx = 0;
  for (const Operation& op : exp.circuit.ops()) {
    if (idx == encoder.size()) with_error.x(0);
    if (op.kind == OpKind::kGate)
      with_error.gate(op.name, op.matrix, op.qubits, op.params);
    else
      with_error.measure(op.qubits[0]);
    ++idx;
  }
  const NoisyCircuit noisy = NoiseModel{}.apply(with_error);
  PauliFrameSampler sampler(noisy, RngStream(3));
  RngStream rng(4);
  const auto records = sampler.sample(100, rng);
  const LookupDecoder decoder(code.z_supports, code.n, 1);
  // Z-checks occupy record bits 3..5 (after the 3 X-checks).
  std::uint64_t expected_syndrome = 0;
  for (std::size_t j = 0; j < code.z_supports.size(); ++j)
    if (code.z_supports[j] & 1ULL) expected_syndrome |= 1ULL << (3 + j);
  for (std::uint64_t r : records) {
    EXPECT_EQ(r & 0x3F, expected_syndrome);
    EXPECT_EQ(decode_memory_shot(exp, decoder, r), 0u);  // corrected
  }
}

TEST(Memory, LogicalErrorRateGrowsWithNoise) {
  const CssCode code = steane();
  const MemoryExperiment exp = make_memory_experiment(code, 1);
  const LookupDecoder decoder(code.z_supports, code.n, 1);
  double previous = 0.0;
  for (const double p : {0.001, 0.01, 0.05}) {
    NoiseModel nm;
    nm.add_all_gate_noise(channels::depolarizing(p));
    const NoisyCircuit noisy = nm.apply(exp.circuit);
    PauliFrameSampler sampler(noisy, RngStream(5));
    RngStream rng(6);
    const auto records = sampler.sample(20000, rng);
    const double rate = memory_logical_error_rate(exp, decoder, records);
    EXPECT_GE(rate, previous - 0.002) << "p=" << p;
    previous = rate;
  }
  EXPECT_GT(previous, 0.01);  // 5% circuit noise must cause logical errors
}

TEST(Memory, FrameSamplerAndPtsbeAgreeOnLogicalErrorRate) {
  // The head-to-head: same noisy memory circuit through the Stim-like bulk
  // sampler and through PTS → BE on the statevector.
  const CssCode code = steane();
  const MemoryExperiment exp = make_memory_experiment(code, 1);
  ASSERT_LE(exp.circuit.num_qubits(), 13u);
  NoiseModel nm;
  nm.add_all_gate_noise(channels::depolarizing(0.01));
  const NoisyCircuit noisy = nm.apply(exp.circuit);
  const LookupDecoder decoder(code.z_supports, code.n, 1);

  PauliFrameSampler sampler(noisy, RngStream(7));
  RngStream rng_f(8);
  const auto frame_records = sampler.sample(40000, rng_f);
  const double frame_rate =
      memory_logical_error_rate(exp, decoder, frame_records);

  RngStream rng_p(9);
  pts::Options opt;
  opt.nsamples = 8000;
  opt.nshots = 5;
  opt.merge_duplicates = true;
  const auto specs = pts::sample_probabilistic(noisy, opt, rng_p);
  const auto result = be::execute(noisy, specs);
  const auto pts_rate = be::estimate_probability(
      result, be::Weighting::kDrawWeighted, [&](std::uint64_t r) {
        return decode_memory_shot(exp, decoder, r) != 0;
      });

  EXPECT_NEAR(frame_rate, pts_rate.value,
              0.01 + 3.0 * pts_rate.std_error);
}

}  // namespace
}  // namespace ptsbe::qec

#include "ptsbe/qec/memory.hpp"

#include "ptsbe/common/error.hpp"
#include "ptsbe/qec/stabilizer_code.hpp"

namespace ptsbe::qec {

MemoryExperiment make_memory_experiment(const CssCode& code, unsigned rounds,
                                        CssBasis basis, PrepStyle prep) {
  PTSBE_REQUIRE(rounds >= 1, "memory experiment needs at least one round");
  PTSBE_REQUIRE(!code.check_supports(basis).empty(),
                "code '" + code.name + "' has no " + to_string(basis) +
                    "-basis checks — its memory cannot be decoded");
  MemoryExperiment exp;
  exp.code = code;
  exp.rounds = rounds;
  exp.basis = basis;
  exp.ancillas_per_round =
      static_cast<unsigned>(code.x_supports.size() + code.z_supports.size());
  const unsigned total =
      code.n + rounds * exp.ancillas_per_round;
  PTSBE_REQUIRE(total <= 64, "record packing supports up to 64 qubits");

  Circuit c(total);
  if (prep == PrepStyle::kEncoder) {
    // The encoder takes the logical input on qubit n−1: |0⟩ there encodes
    // |0_L⟩; an H first prepares |+⟩ → |+_L⟩ for the X-basis memory.
    if (basis == CssBasis::kX) c.h(code.n - 1);
    c.append(synthesize_encoder(code));
  } else if (basis == CssBasis::kX) {
    // Product prep: |+⟩^n (Z basis needs nothing — |0⟩^n is the start
    // state); the first extraction round completes the projection.
    for (unsigned q = 0; q < code.n; ++q) c.h(q);
  }

  unsigned next_ancilla = code.n;
  for (unsigned r = 0; r < rounds; ++r) {
    // X-type checks: ancilla |+⟩ controls CX onto the data support; a
    // final H maps the accumulated phase parity to the Z basis.
    for (std::uint64_t support : code.x_supports) {
      const unsigned a = next_ancilla++;
      c.h(a);
      for (unsigned q = 0; q < code.n; ++q)
        if ((support >> q) & 1ULL) c.cx(a, q);
      c.h(a);
      c.measure(a);
    }
    // Z-type checks: data qubits control CX onto the |0⟩ ancilla, which
    // accumulates the bit parity directly.
    for (std::uint64_t support : code.z_supports) {
      const unsigned a = next_ancilla++;
      for (unsigned q = 0; q < code.n; ++q)
        if ((support >> q) & 1ULL) c.cx(q, a);
      c.measure(a);
    }
  }
  if (basis == CssBasis::kX)
    for (unsigned q = 0; q < code.n; ++q) c.h(q);
  for (unsigned q = 0; q < code.n; ++q) c.measure(q);
  exp.circuit = std::move(c);
  return exp;
}

unsigned decode_memory_shot(const MemoryExperiment& experiment,
                            const Decoder& decoder, std::uint64_t record) {
  return decode_readout(experiment.code, experiment.basis, decoder,
                        experiment.data_bits(record));
}

double memory_logical_error_rate(const MemoryExperiment& experiment,
                                 const Decoder& decoder,
                                 const std::vector<std::uint64_t>& records) {
  PTSBE_REQUIRE(!records.empty(), "no records to decode");
  double errors = 0.0;
  for (std::uint64_t r : records)
    errors += decode_memory_shot(experiment, decoder, r) != 0 ? 1.0 : 0.0;
  return errors / static_cast<double>(records.size());
}

}  // namespace ptsbe::qec

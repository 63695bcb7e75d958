#pragma once

/// \file workloads.hpp
/// \brief Shared workload builders for the benchmark harnesses.
///
/// Scaling note: the paper's statevector workload is the 35-qubit
/// Steane-encoded MSD circuit on 4×H100, whose 2^35-amplitude state (512 GiB)
/// does not fit a CPU host, so the statevector benches run (a) the exact
/// bare 5-qubit MSD protocol and (b) an 18-qubit surrogate whose
/// preparation/sampling cost ratio plays the same role as the 35-qubit
/// footprint. The tensor-network
/// benches run the paper's actual encoded workloads (35 and 125 physical
/// qubits) on the MPS backend.

#include "ptsbe/noise/channels.hpp"
#include "ptsbe/noise/noise_model.hpp"
#include "ptsbe/qec/codes.hpp"
#include "ptsbe/qec/distillation.hpp"

namespace ptsbe::bench {

/// Bare 5→1 MSD circuit with depolarizing noise after every gate.
inline NoisyCircuit noisy_bare_msd(double p) {
  Circuit c = qec::bare_msd_circuit();
  NoiseModel nm;
  nm.add_all_gate_noise(channels::depolarizing(p));
  return nm.apply(c);
}

/// Brickwork surrogate: n qubits, `depth` alternating layers of single-qubit
/// rotations and entangling CX/CZ, with depolarizing + amplitude damping
/// noise. Deterministic for a given seed.
inline NoisyCircuit surrogate_circuit(unsigned n, unsigned depth, double p,
                                      std::uint64_t seed = 7) {
  RngStream rng(seed);
  Circuit c(n);
  for (unsigned d = 0; d < depth; ++d) {
    for (unsigned q = 0; q < n; ++q) {
      switch (rng.uniform_index(4)) {
        case 0: c.h(q); break;
        case 1: c.t(q); break;
        case 2: c.rx(q, rng.uniform(0, 3.1)); break;
        default: c.ry(q, rng.uniform(0, 3.1)); break;
      }
    }
    const unsigned offset = d % 2;
    for (unsigned q = offset; q + 1 < n; q += 2)
      (d % 4 < 2) ? c.cx(q, q + 1) : c.cz(q, q + 1);
  }
  c.measure_all();
  NoiseModel nm;
  nm.add_all_gate_noise(channels::depolarizing(p));
  nm.add_measurement_noise(channels::amplitude_damping(p));
  return nm.apply(c);
}

/// The paper's tensor-network workload: five encoded magic states
/// (35 qubits on Steane, 125 on the distance-5 block).
inline NoisyCircuit noisy_msd_preparation(const qec::CssCode& code, double p) {
  Circuit c = qec::msd_preparation_circuit(code);
  NoiseModel nm;
  nm.add_all_gate_noise(channels::depolarizing(p));
  return nm.apply(c);
}

/// Full encoded MSD (Steane → 35 qubits) for the MPS backend.
inline NoisyCircuit noisy_encoded_msd(const qec::CssCode& code, double p) {
  Circuit c = qec::encoded_msd_circuit(code);
  NoiseModel nm;
  nm.add_all_gate_noise(channels::depolarizing(p));
  return nm.apply(c);
}

}  // namespace ptsbe::bench

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

#include <string>

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

/// Dressed GHZ chain whose noise placement sets how much of the program
/// trajectories share (the workloads of bench_prefix_sharing and
/// bench_gate_kernels):
///  - "readout": bit flips on measurement only — every trajectory shares
///               the *entire* gate sweep (readout-error-dominated regime).
///  - "late":    two-qubit depolarizing on the last `late_cx` entanglers
///               (plus light readout flips) — long shared prefixes.
///  - "all":     one-qubit depolarizing after every gate — prefixes can
///               diverge anywhere in the program.
inline NoisyCircuit ghz_workload(unsigned n, const std::string& overlap,
                                 unsigned late_cx) {
  // The local-rotation layers before and after the entangling chain are
  // what gate fusion feeds on: each ry·rz pair collapses to one sweep and
  // then folds into the neighbouring cx.
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

}  // namespace ptsbe::bench

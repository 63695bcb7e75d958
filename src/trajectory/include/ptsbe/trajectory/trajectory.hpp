#pragma once

/// \file trajectory.hpp
/// \brief Conventional noisy trajectory simulation (the paper's Algorithm 1).
///
/// This is the *baseline* PTSBE is measured against: each shot prepares a
/// fresh state, interleaves gate application with per-site stochastic branch
/// selection, and collects a single measurement at the end. Unitary-mixture
/// channels take the state-independent fast path (branch by nominal
/// probability, apply U_k); general channels compute the realised
/// probabilities ⟨ψ|K_i†K_i|ψ⟩ at the sampling point (Algorithm 1 line 9)
/// and apply K_k/√p_k. The fast path can be disabled to reproduce the
/// paper's §2.2 feature-(2) ablation.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ptsbe/common/rng.hpp"
#include "ptsbe/noise/noise_model.hpp"
#include "ptsbe/statevector/statevector.hpp"
#include "ptsbe/tensornet/mps.hpp"

namespace ptsbe::traj {

/// Tuning/ablation switches for the baseline simulator.
struct Options {
  /// Use exact state-independent probabilities for unitary-mixture channels.
  bool unitary_mixture_fast_path = true;
};

/// Work counters for cost accounting in tests and benches.
struct RunStats {
  std::size_t state_preparations = 0;
  std::size_t gate_applications = 0;
  std::size_t expectation_evaluations = 0;  ///< general-Kraus probability computations
};

/// Result of a trajectory run: measurement records plus per-shot error
/// provenance is *not* available here — conventional trajectory simulation
/// discards it, which is limitation (2) the paper lists. (PTSBE in
/// ptsbe/core is the variant that keeps it.)
struct Result {
  /// One record per shot: bits of the measured qubits (program order), or
  /// all qubits when the circuit has no measure ops.
  std::vector<std::uint64_t> records;
  RunStats stats;
};

/// Run `num_trajectories` independent trajectories on the statevector
/// backend (Algorithm 1), one shot each.
Result run_statevector(const NoisyCircuit& noisy, std::size_t num_trajectories,
                       RngStream& rng, const Options& options = {});

/// Same on the MPS tensor-network backend.
Result run_mps(const NoisyCircuit& noisy, std::size_t num_trajectories,
               RngStream& rng, const MpsConfig& mps_config,
               const Options& options = {});

}  // namespace ptsbe::traj

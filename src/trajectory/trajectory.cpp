#include "ptsbe/trajectory/trajectory.hpp"

#include <type_traits>

#include "ptsbe/common/bits.hpp"
#include "ptsbe/common/error.hpp"

namespace ptsbe::traj {

namespace {

/// Select and apply one branch at `site` on `state`. Returns the branch
/// index. Implements Algorithm 1's if/else on unitary-mixture detection.
template <typename State>
std::size_t sample_and_apply_site(State& state, const NoiseSite& site,
                                  RngStream& rng, const Options& options,
                                  RunStats& stats) {
  const KrausChannel& ch = *site.channel;
  const double r = rng.uniform();
  if (options.unitary_mixture_fast_path && ch.is_unitary_mixture()) {
    // State-independent probabilities: index into the cumulative table and
    // apply the unitary directly (no renormalisation needed).
    const auto& probs = ch.nominal_probabilities();
    double acc = 0.0;
    std::size_t k = probs.size() - 1;
    for (std::size_t i = 0; i < probs.size(); ++i) {
      acc += probs[i];
      if (r < acc) {
        k = i;
        break;
      }
    }
    state.apply_gate(ch.unitary(k), site.qubits);
    ++stats.gate_applications;
    return k;
  }
  // General path: realised probabilities at the current state. The CPTP
  // condition guarantees they sum to 1, so the cumulative walk terminates.
  double acc = 0.0;
  std::size_t k = ch.num_branches() - 1;
  for (std::size_t i = 0; i < ch.num_branches(); ++i) {
    const double p = state.branch_probability(ch.kraus(i), site.qubits);
    ++stats.expectation_evaluations;
    acc += p;
    if (r < acc) {
      k = i;
      break;
    }
  }
  // When rounding leaves r ≥ Σp, k falls back to the last branch, which can
  // have zero probability at this state.
  const double p = state.apply_kraus_branch(ch.kraus(k), site.qubits);
  PTSBE_REQUIRE(p > 1e-300, "Kraus branch has zero probability at this state");
  ++stats.gate_applications;
  return k;
}

template <typename State, typename MakeState>
Result run_impl(const NoisyCircuit& noisy, std::size_t num_trajectories,
                RngStream& rng, const Options& options,
                const MakeState& make_state) {
  Result result;
  result.records.reserve(num_trajectories);
  const std::vector<unsigned> measured = noisy.circuit().measured_qubits();
  const auto& ops = noisy.circuit().ops();

  for (std::size_t t = 0; t < num_trajectories; ++t) {
    State state = make_state();
    ++result.stats.state_preparations;

    for (std::size_t id : noisy.sites_after(NoiseSite::kBeforeCircuit))
      sample_and_apply_site(state, noisy.sites()[id], rng, options,
                            result.stats);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind == OpKind::kGate) {
        state.apply_gate(ops[i].matrix, ops[i].qubits);
        ++result.stats.gate_applications;
      }
      for (std::size_t id : noisy.sites_after(i))
        sample_and_apply_site(state, noisy.sites()[id], rng, options,
                              result.stats);
    }

    // The MPS sampler packs the measured qubits itself, so its chain may be
    // wider than a 64-bit basis-state index.
    if constexpr (std::is_same_v<State, MpsState>) {
      result.records.push_back(state.sample_records(1, rng, measured)[0]);
    } else {
      const std::uint64_t shot = state.sample_shots(1, rng)[0];
      result.records.push_back(measured.empty() ? shot
                                                : extract_bits(shot, measured));
    }
  }
  return result;
}

}  // namespace

Result run_statevector(const NoisyCircuit& noisy, std::size_t num_trajectories,
                       RngStream& rng, const Options& options) {
  return run_impl<StateVector>(noisy, num_trajectories, rng, options, [&] {
    return StateVector(noisy.num_qubits());
  });
}

Result run_mps(const NoisyCircuit& noisy, std::size_t num_trajectories,
               RngStream& rng, const MpsConfig& mps_config,
               const Options& options) {
  return run_impl<MpsState>(noisy, num_trajectories, rng, options, [&] {
    return MpsState(noisy.num_qubits(), mps_config);
  });
}

}  // namespace ptsbe::traj

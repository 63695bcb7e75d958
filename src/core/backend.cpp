#include "ptsbe/core/backend.hpp"

#include <utility>

#include "ptsbe/densmat/density_matrix.hpp"
#include "ptsbe/stabilizer/pauli_frame.hpp"
#include "ptsbe/stabilizer/stabilizer_state.hpp"
#include "ptsbe/statevector/statevector.hpp"

namespace ptsbe {

namespace {

/// Bits per shot record for `noisy` (one per measure op; all qubits when
/// the circuit has none). Records are 64-bit words, so every backend's
/// supports() declines wider programs instead of silently truncating.
std::size_t record_width(const NoisyCircuit& noisy) {
  const std::size_t measured = noisy.circuit().measured_qubits().size();
  return measured == 0 ? noisy.num_qubits() : measured;
}

/// True when every measurement commutes to the end of the circuit: once a
/// qubit is measured, no gate, second measurement, or noise site — other
/// than readout noise attached to that same measure op, which fires before
/// the record is taken — touches it again. Under this condition measuring
/// every qubit after the last step, where all backends draw their records,
/// gives the same records as measuring in program order, which is what
/// admits QEC syndrome-extraction circuits: each ancilla is measured
/// mid-circuit but quiescent afterwards. Terminal-measurement circuits
/// pass trivially.
bool measurements_are_deferrable(const NoisyCircuit& noisy) {
  const auto& ops = noisy.circuit().ops();
  std::vector<bool> measured(noisy.num_qubits(), false);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Operation& op = ops[i];
    for (unsigned q : op.qubits)
      if (measured[q]) return false;
    const bool is_measure = op.kind == OpKind::kMeasure;
    const unsigned mq = is_measure ? op.qubits.front() : 0;
    if (is_measure) measured[mq] = true;
    for (std::size_t id : noisy.sites_after(i))
      for (unsigned q : noisy.sites()[id].qubits)
        if (measured[q] && !(is_measure && q == mq)) return false;
  }
  return true;
}

/// Type-erasing SimState adapter over the concrete state representations.
/// clone() is the representation's copy constructor — a deep snapshot.
template <typename State>
class SimStateAdapter final : public SimState {
 public:
  explicit SimStateAdapter(State state) : state_(std::move(state)) {}

  [[nodiscard]] std::unique_ptr<SimState> clone() const override {
    return std::make_unique<SimStateAdapter>(*this);
  }

  void apply_gate(const Matrix& matrix,
                  std::span<const unsigned> qubits) override {
    state_.apply_gate(matrix, qubits);
  }

  [[nodiscard]] bool supports_prepared_runs() const override {
    return requires(State& s, std::span<const kernels::PreparedGate> g) {
      s.apply_prepared_gates(g);
    };
  }

  void apply_prepared_run(
      std::span<const kernels::PreparedGate> gates) override {
    if constexpr (requires { state_.apply_prepared_gates(gates); })
      state_.apply_prepared_gates(gates);
    else
      SimState::apply_prepared_run(gates);
  }

  std::size_t apply_kraus_branches(std::span<const KrausBranch> sites,
                                   double cut,
                                   std::span<double> p) override {
    if constexpr (requires { state_.apply_kraus_branches(sites, cut, p); }) {
      return state_.apply_kraus_branches(sites, cut, p);
    } else {
      PTSBE_REQUIRE(p.size() >= sites.size(),
                    "apply_kraus_branches needs one probability slot per site");
      for (std::size_t i = 0; i < sites.size(); ++i) {
        p[i] = state_.apply_kraus_branch(*sites[i].k, sites[i].qubits);
        if (p[i] < cut || p[i] <= 1e-300) return i + 1;
      }
      return sites.size();
    }
  }

  [[nodiscard]] bool samples_in_place() const override {
    return requires(const State& s, std::span<std::uint64_t> w,
                    std::span<const unsigned> m) {
      s.records_from_exponentials(w, 0.0, m);
    };
  }

  [[nodiscard]] std::vector<std::uint64_t> sample_records(
      std::size_t count, RngStream& rng,
      std::span<const unsigned> measured) override {
    if constexpr (requires { state_.sample_records(count, rng, measured); })
      return state_.sample_records(count, rng, measured);
    else
      return SimState::sample_records(count, rng, measured);
  }

  void records_from_exponentials(
      std::span<std::uint64_t> words, double last,
      std::span<const unsigned> measured) const override {
    if constexpr (requires {
                    state_.records_from_exponentials(words, last, measured);
                  })
      state_.records_from_exponentials(words, last, measured);
    else
      SimState::records_from_exponentials(words, last, measured);
  }

 private:
  State state_;
};

/// Shared base for the three amplitude-style backends: the (optionally
/// fused) execution plan Batched Execution walks on their states.
class AmplitudeBackend : public Backend {
 public:
  explicit AmplitudeBackend(bool fuse_gates) : fuse_gates_(fuse_gates) {}

  [[nodiscard]] ExecPlan make_plan(const NoisyCircuit& noisy) const override {
    return build_exec_plan(noisy, fuse_gates_);
  }

 private:
  bool fuse_gates_;
};

// ---------------------------------------------------------------------------
// Built-in backends
// ---------------------------------------------------------------------------

class StatevectorBackend final : public AmplitudeBackend {
 public:
  using AmplitudeBackend::AmplitudeBackend;

  [[nodiscard]] const std::string& name() const noexcept override {
    static const std::string kName = "statevector";
    return kName;
  }

  [[nodiscard]] bool supports(const NoisyCircuit& noisy) const override {
    return noisy.num_qubits() >= 1 && noisy.num_qubits() <= 30 &&
           record_width(noisy) <= 64;
  }

  [[nodiscard]] SimStatePtr make_state(unsigned num_qubits) const override {
    return std::make_unique<SimStateAdapter<StateVector>>(
        StateVector(num_qubits));
  }
};

class DensmatBackend final : public AmplitudeBackend {
 public:
  using AmplitudeBackend::AmplitudeBackend;

  [[nodiscard]] const std::string& name() const noexcept override {
    static const std::string kName = "densmat";
    return kName;
  }

  [[nodiscard]] bool supports(const NoisyCircuit& noisy) const override {
    return noisy.num_qubits() >= 1 && noisy.num_qubits() <= 13 &&
           record_width(noisy) <= 64;
  }

  [[nodiscard]] SimStatePtr make_state(unsigned num_qubits) const override {
    return std::make_unique<SimStateAdapter<DensityMatrix>>(
        DensityMatrix(num_qubits));
  }
};

class MpsBackend final : public AmplitudeBackend {
 public:
  MpsBackend(MpsConfig config, bool fuse_gates)
      : AmplitudeBackend(fuse_gates), config_(config) {}

  [[nodiscard]] const std::string& name() const noexcept override {
    static const std::string kName = "mps";
    return kName;
  }

  [[nodiscard]] bool supports(const NoisyCircuit& noisy) const override {
    if (noisy.num_qubits() < 1 || record_width(noisy) > 64) return false;
    for (const Operation& op : noisy.circuit().ops())
      if (op.kind == OpKind::kGate && op.arity() > 2) return false;
    for (const NoiseSite& site : noisy.sites())
      if (site.channel->arity() > 2) return false;
    return true;
  }

  [[nodiscard]] SimStatePtr make_state(unsigned num_qubits) const override {
    return std::make_unique<SimStateAdapter<MpsState>>(
        MpsState(num_qubits, config_));
  }

 private:
  MpsConfig config_;
};

/// Backend for the Clifford + Pauli-mixture fragment. A spec fixes every
/// site's branch to a Pauli, so a trajectory is a Clifford circuit: the plan
/// walk records it on a `StabilizerState`, which the frame sampler samples.
/// Its plan is the unfused one: a fused product is not a named Clifford.
class StabilizerBackend final : public Backend {
 public:
  [[nodiscard]] const std::string& name() const noexcept override {
    static const std::string kName = "stabilizer";
    return kName;
  }

  [[nodiscard]] bool supports(const NoisyCircuit& noisy) const override {
    if (noisy.num_qubits() < 1 || record_width(noisy) > 64 ||
        !measurements_are_deferrable(noisy) ||
        !PauliFrameSampler::is_supported(noisy))
      return false;
    // The walk records each gate by its matrix, whatever its name says.
    for (const Operation& op : noisy.circuit().ops())
      if (op.kind == OpKind::kGate &&
          !StabilizerState::can_record(op.matrix, op.qubits.size()))
        return false;
    return true;
  }

  [[nodiscard]] SimStatePtr make_state(unsigned num_qubits) const override {
    return std::make_unique<SimStateAdapter<StabilizerState>>(
        StabilizerState(num_qubits));
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

BackendRegistry::BackendRegistry() : Registry("backend") {
  add("statevector", [](const BackendConfig& config) -> BackendPtr {
    return std::make_unique<StatevectorBackend>(config.fuse_gates);
  });
  add("densmat", [](const BackendConfig& config) -> BackendPtr {
    return std::make_unique<DensmatBackend>(config.fuse_gates);
  });
  add("stabilizer", [](const BackendConfig&) -> BackendPtr {
    return std::make_unique<StabilizerBackend>();
  });
  const auto make_mps = [](const BackendConfig& config) -> BackendPtr {
    return std::make_unique<MpsBackend>(config.mps, config.fuse_gates);
  };
  add("mps", make_mps);
  // Alias matching the paper's CUDA-Q backend name.
  add("tensornet", make_mps);
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  return registry;
}

BackendPtr make_backend(const std::string& name, const BackendConfig& config) {
  return BackendRegistry::instance().make(name, config);
}

}  // namespace ptsbe

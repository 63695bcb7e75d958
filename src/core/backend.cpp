#include "ptsbe/core/backend.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "ptsbe/common/error.hpp"
#include "ptsbe/common/thread_annotations.hpp"
#include "ptsbe/common/timer.hpp"
#include "ptsbe/densmat/density_matrix.hpp"
#include "ptsbe/stabilizer/pauli_frame.hpp"
#include "ptsbe/statevector/statevector.hpp"

namespace ptsbe {

namespace {

/// Bits per shot record for `noisy` (one per measure op; all qubits when
/// the circuit has none). ShotResult packs records into 64-bit words, so
/// every backend's supports() declines wider programs instead of silently
/// truncating.
std::size_t record_width(const NoisyCircuit& noisy) {
  const std::size_t measured = noisy.circuit().measured_qubits().size();
  return measured == 0 ? noisy.num_qubits() : measured;
}

/// True when every measurement commutes to the end of the circuit: once a
/// qubit is measured, no gate, second measurement, or noise site — other
/// than readout noise attached to that same measure op, which fires before
/// the record is taken — touches it again. Under this condition recording
/// *at* the measure step (stabilizer frame sampler) and sampling the final
/// state (amplitude backends) give the same distribution, which is what
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

  double apply_kraus_branch(const Matrix& k,
                            std::span<const unsigned> qubits) override {
    return state_.apply_kraus_branch(k, qubits);
  }

  [[nodiscard]] std::vector<std::uint64_t> sample_shots(
      std::size_t count, RngStream& rng) override {
    return state_.sample_shots(count, rng);
  }

  [[nodiscard]] bool samples_in_place() const override {
    return requires(const State& s, std::span<std::uint64_t> w,
                    std::span<const unsigned> m) {
      s.records_from_exponentials(w, 0.0, m);
    };
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

/// Shared base for the three amplitude-style backends: forkable states and
/// the (optionally fused) execution plan Batched Execution walks on them.
class AmplitudeBackend : public Backend {
 public:
  explicit AmplitudeBackend(bool fuse_gates) : fuse_gates_(fuse_gates) {}

  [[nodiscard]] ExecPlan make_plan(const NoisyCircuit& noisy) const override {
    return build_exec_plan(noisy, fuse_gates_);
  }

  [[nodiscard]] bool can_fork_states() const noexcept override { return true; }

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

/// Backend for the Clifford + Pauli-mixture fragment. The spec's assigned
/// branches are fixed Pauli operators, so the trajectory is itself a
/// Clifford circuit: inline each branch as Pauli gates at its site and hand
/// the result (with zero remaining noise sites) to the word-parallel
/// PauliFrameSampler, whose random initial Z-frame correctly randomises
/// non-deterministic measurement outcomes across the bulk shots.
class StabilizerBackend final : public Backend {
 public:
  [[nodiscard]] const std::string& name() const noexcept override {
    static const std::string kName = "stabilizer";
    return kName;
  }

  [[nodiscard]] bool supports(const NoisyCircuit& noisy) const override {
    return noisy.num_qubits() >= 1 && record_width(noisy) <= 64 &&
           measurements_are_deferrable(noisy) &&
           PauliFrameSampler::is_supported(noisy);
  }

  [[nodiscard]] ShotResult run(const NoisyCircuit& noisy,
                               const TrajectorySpec& spec,
                               std::uint64_t shots,
                               RngStream& rng) const override {
    ShotResult out;
    const std::vector<std::size_t> assignment = full_assignment(noisy, spec);

    WallTimer timer;
    Circuit derived(noisy.num_qubits());
    const auto inline_site = [&](std::size_t id) {
      const NoiseSite& site = noisy.sites()[id];
      const KrausChannel& ch = *site.channel;
      const std::size_t branch = assignment[id];
      std::vector<std::pair<bool, bool>> toggles;
      PTSBE_REQUIRE(ch.is_unitary_mixture() &&
                        pauli_toggles(ch.unitary(branch), ch.arity(), toggles),
                    "stabilizer backend requires Pauli-mixture noise");
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
      out.realized_probability *= ch.nominal_probabilities()[branch];
    };
    for (std::size_t id : noisy.sites_after(NoiseSite::kBeforeCircuit))
      inline_site(id);
    const auto& ops = noisy.circuit().ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind == OpKind::kMeasure) {
        // Readout-noise sites fire before the record is taken.
        for (std::size_t id : noisy.sites_after(i)) inline_site(id);
        derived.measure(ops[i].qubits.front());
        continue;
      }
      derived.gate(ops[i].name, ops[i].matrix, ops[i].qubits, ops[i].params);
      for (std::size_t id : noisy.sites_after(i)) inline_site(id);
    }
    // Zero noise sites remain: the frame sampler's stochastic machinery is
    // inert and it reduces to reference-run + bulk frame propagation.
    const PauliFrameSampler sampler(NoiseModel().apply(derived),
                                    RngStream(rng.bits64()));
    out.prepare_seconds = timer.seconds();
    timer.reset();
    out.records = sampler.sample(shots, rng);
    out.sample_seconds = timer.seconds();
    return out;
  }
};

}  // namespace

ShotResult Backend::run(const NoisyCircuit& /*noisy*/,
                        const TrajectorySpec& /*spec*/, std::uint64_t /*shots*/,
                        RngStream& /*rng*/) const {
  throw precondition_error("backend '" + name() +
                           "' prepares through make_state and make_plan; "
                           "run it with be::execute");
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct BackendRegistry::Impl {
  mutable Mutex mutex;
  std::map<std::string, BackendFactory> factories PTSBE_GUARDED_BY(mutex);
};

BackendRegistry::BackendRegistry() : impl_(std::make_shared<Impl>()) {
  register_backend("statevector", [](const BackendConfig& config) -> BackendPtr {
    return std::make_unique<StatevectorBackend>(config.fuse_gates);
  });
  register_backend("densmat", [](const BackendConfig& config) -> BackendPtr {
    return std::make_unique<DensmatBackend>(config.fuse_gates);
  });
  register_backend("stabilizer", [](const BackendConfig&) -> BackendPtr {
    return std::make_unique<StabilizerBackend>();
  });
  const auto make_mps = [](const BackendConfig& config) -> BackendPtr {
    return std::make_unique<MpsBackend>(config.mps, config.fuse_gates);
  };
  register_backend("mps", make_mps);
  // Alias matching the paper's CUDA-Q backend name.
  register_backend("tensornet", make_mps);
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::register_backend(const std::string& name,
                                       BackendFactory factory) {
  PTSBE_REQUIRE(!name.empty(), "backend name must be non-empty");
  PTSBE_REQUIRE(static_cast<bool>(factory), "backend factory must be callable");
  MutexLock lock(impl_->mutex);
  const bool inserted =
      impl_->factories.emplace(name, std::move(factory)).second;
  PTSBE_REQUIRE(inserted, "backend name already registered: " + name);
}

bool BackendRegistry::contains(const std::string& name) const {
  MutexLock lock(impl_->mutex);
  return impl_->factories.count(name) != 0;
}

BackendPtr BackendRegistry::make(const std::string& name,
                                 const BackendConfig& config) const {
  BackendFactory factory;
  {
    MutexLock lock(impl_->mutex);
    const auto it = impl_->factories.find(name);
    if (it != impl_->factories.end()) factory = it->second;
  }
  if (!factory) {
    std::ostringstream os;
    os << "unknown backend '" << name << "'; registered backends:";
    for (const std::string& n : names()) os << ' ' << n;
    throw precondition_error(os.str());
  }
  return factory(config);
}

std::vector<std::string> BackendRegistry::names() const {
  MutexLock lock(impl_->mutex);
  std::vector<std::string> out;
  out.reserve(impl_->factories.size());
  for (const auto& [name, factory] : impl_->factories) out.push_back(name);
  return out;  // std::map iteration is already sorted
}

BackendPtr make_backend(const std::string& name, const BackendConfig& config) {
  return BackendRegistry::instance().make(name, config);
}

}  // namespace ptsbe

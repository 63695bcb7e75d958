// Smoke tests for the unified Backend registry: every registered backend
// runs the same noiseless 2-qubit Bell circuit through Batched Execution
// and must agree on the outcome distribution (00 and 11 at probability 1/2,
// no odd-parity records). This is the contract later multi-backend /
// sharding PRs build on.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "ptsbe/core/backend.hpp"
#include "ptsbe/core/batched_execution.hpp"
#include "ptsbe/noise/channels.hpp"

namespace ptsbe {
namespace {

NoisyCircuit bell_program() {
  Circuit c(2);
  c.h(0).cx(0, 1).measure_all();
  return NoiseModel().apply(c);  // no noise sites
}

TEST(BackendRegistry, BuiltinsAreRegistered) {
  auto& registry = BackendRegistry::instance();
  for (const char* name : {"statevector", "densmat", "stabilizer", "mps",
                           "tensornet"})
    EXPECT_TRUE(registry.contains(name)) << name;
  EXPECT_FALSE(registry.contains("no-such-backend"));
  EXPECT_THROW((void)registry.make("no-such-backend"), precondition_error);
}

TEST(BackendRegistry, NamesAreSortedAndNonEmpty) {
  const std::vector<std::string> names = BackendRegistry::instance().names();
  ASSERT_GE(names.size(), 5u);
  for (std::size_t i = 1; i < names.size(); ++i)
    EXPECT_LT(names[i - 1], names[i]);
}

TEST(BackendRegistry, EveryBackendAgreesOnBellProbabilities) {
  const NoisyCircuit noisy = bell_program();
  TrajectorySpec spec;  // error-free trajectory
  spec.shots = 4096;
  spec.nominal_probability = 1.0;

  for (const std::string& name : BackendRegistry::instance().names()) {
    ASSERT_TRUE(make_backend(name)->supports(noisy)) << name;
    be::Options opt;
    opt.backend = name;
    opt.seed = 0xB311C0DEULL;
    const be::Result run = be::execute(noisy, {spec}, opt);
    ASSERT_EQ(run.batches.size(), 1u) << name;
    const be::TrajectoryBatch& result = run.batches[0];
    EXPECT_DOUBLE_EQ(result.realized_probability, 1.0) << name;
    ASSERT_EQ(result.records.size(), spec.shots) << name;

    std::size_t count00 = 0, count11 = 0;
    for (std::uint64_t r : result.records) {
      if (r == 0b00) ++count00;
      if (r == 0b11) ++count11;
    }
    EXPECT_EQ(count00 + count11, spec.shots)
        << name << " produced odd-parity Bell records";
    // 4096 fair coin flips: 5σ ≈ 160.
    const double p00 =
        static_cast<double>(count00) / static_cast<double>(spec.shots);
    EXPECT_NEAR(p00, 0.5, 0.04) << name;
  }
}

TEST(BackendRegistry, SupportsReflectsBackendRestrictions) {
  // A T gate leaves the Clifford fragment: stabilizer must decline, the
  // amplitude-style backends must accept.
  Circuit c(2);
  c.h(0).t(0).cx(0, 1).measure_all();
  const NoisyCircuit noisy = NoiseModel().apply(c);
  EXPECT_FALSE(make_backend("stabilizer")->supports(noisy));
  EXPECT_TRUE(make_backend("statevector")->supports(noisy));
  EXPECT_TRUE(make_backend("densmat")->supports(noisy));
  EXPECT_TRUE(make_backend("mps")->supports(noisy));
}

TEST(BackendRegistry, ExecuteDispatchesByName) {
  const NoisyCircuit noisy = bell_program();
  TrajectorySpec spec;
  spec.shots = 512;
  spec.nominal_probability = 1.0;

  for (const std::string& name :
       {std::string("statevector"), std::string("densmat"),
        std::string("stabilizer"), std::string("mps")}) {
    be::Options opt;
    opt.backend = name;
    const be::Result result = be::execute(noisy, {spec}, opt);
    ASSERT_EQ(result.batches.size(), 1u) << name;
    EXPECT_EQ(result.batches[0].records.size(), 512u) << name;
  }

  be::Options bad;
  bad.backend = "no-such-backend";
  EXPECT_THROW((void)be::execute(noisy, {spec}, bad), precondition_error);
}

TEST(BackendRegistry, PluginRegistrationRoundTrips) {
  auto& registry = BackendRegistry::instance();
  const std::string name = "test-plugin-backend";
  if (!registry.contains(name)) {
    // A plugin implements the one seam: it delegates its states and plan
    // to the stabilizer backend, which Batched Execution then walks.
    // Delegating keeps the every-registered-backend Bell test valid
    // regardless of the order gtest runs this suite in (registrations are
    // process-global).
    registry.add(name, [](const BackendConfig&) -> BackendPtr {
      struct Plugin final : Backend {
        [[nodiscard]] const std::string& name() const noexcept override {
          static const std::string kName = "test-plugin-backend";
          return kName;
        }
        [[nodiscard]] bool supports(const NoisyCircuit& noisy) const override {
          return make_backend("stabilizer")->supports(noisy);
        }
        [[nodiscard]] SimStatePtr make_state(
            unsigned num_qubits) const override {
          return make_backend("stabilizer")->make_state(num_qubits);
        }
        [[nodiscard]] ExecPlan make_plan(
            const NoisyCircuit& noisy) const override {
          return make_backend("stabilizer")->make_plan(noisy);
        }
      };
      return std::make_unique<Plugin>();
    });
  }
  EXPECT_TRUE(registry.contains(name));
  be::Options opt;
  opt.backend = name;
  TrajectorySpec spec;
  spec.shots = 7;
  const be::Result run = be::execute(bell_program(), {spec}, opt);
  ASSERT_EQ(run.batches.size(), 1u);
  EXPECT_EQ(run.batches[0].records.size(), 7u);
  // Duplicate registration is rejected.
  EXPECT_THROW(
      registry.add(name, [](const BackendConfig&) -> BackendPtr {
        return nullptr;
      }),
      precondition_error);
}

}  // namespace
}  // namespace ptsbe

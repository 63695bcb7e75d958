#pragma once

/// \file batched_execution.hpp
/// \brief Batched Execution (BE) — the paper's second stage.
///
/// Given trajectory specifications from PTS, BE prepares each trajectory's
/// state exactly once (the O(2^n)/tensor-contraction cost) and then draws the
/// spec's full shot budget in bulk (polynomial cost), eliminating the
/// redundant state re-preparation of conventional trajectory simulation.
/// Both schedules prepare through one plan walk
/// (ptsbe/core/prefix_scheduler.hpp). Specs are embarrassingly parallel:
/// they are sharded over the work-stealing `TrajectoryExecutor` (the CPU
/// stand-in for the paper's multi-GPU inter-trajectory parallelism;
/// `Options::threads` sizes the pool), each with a reproducible Philox
/// substream keyed by its batch index — which is why records are
/// bit-identical at every thread count.
/// A spec's preparation sweeps, and a bulk draw of more than one chunk of
/// shots, also split across idle workers without changing a bit
/// (ptsbe/common/parallel.hpp, ptsbe/core/leaf_sampler.hpp).
/// Error provenance — the spec's branch list — rides along as metadata on
/// every batch (the paper's third bullet).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ptsbe/common/rng.hpp"
#include "ptsbe/core/backend.hpp"
#include "ptsbe/core/trajectory_spec.hpp"

namespace ptsbe::be {

/// How trajectory preparations are scheduled across the spec set.
enum class Schedule : std::uint8_t {
  /// Every spec is prepared from |0…0⟩ independently, as a one-spec plan
  /// walk (embarrassingly parallel).
  kIndependent,
  /// Specs are organised into a trie over their per-site branch decisions;
  /// each shared prefix is simulated once and the state is forked at the
  /// first deviating branch (see ptsbe/core/prefix_scheduler.hpp). Records
  /// are bit-for-bit identical to kIndependent on every backend.
  kSharedPrefix,
};

/// Registry-style names for Schedule ("independent" | "shared-prefix").
[[nodiscard]] const std::string& to_string(Schedule schedule);
/// \throws precondition_error for unknown names (the message lists both).
[[nodiscard]] Schedule schedule_from_string(const std::string& name);

/// Execution options.
struct Options {
  /// Registry name of the simulator backend that prepares and samples the
  /// trajectories ("statevector", "densmat", "stabilizer", "mps"/"tensornet",
  /// or any plugin registered with BackendRegistry).
  std::string backend = "statevector";
  /// Tuning knobs forwarded verbatim to the backend factory (e.g.
  /// `config.mps` for the MPS truncation policy, `config.fuse_gates` for
  /// the gate-fusion pass). Embedding the whole BackendConfig means new
  /// backend knobs need no Options edits.
  BackendConfig config;
  /// Trajectory scheduling policy. kSharedPrefix amortises the shared
  /// portion of the preparation sweep across overlapping specs; results
  /// are bit-identical to kIndependent.
  Schedule schedule = Schedule::kIndependent;
  /// Worker threads of the work-stealing `TrajectoryExecutor`, the only
  /// threads a run uses: 0 = hardware concurrency, 1 (default) = everything
  /// on one thread. Workers run specs, and an idle worker also takes ranges
  /// of another's preparation once its state exceeds 2^14 amplitudes
  /// (ptsbe/common/parallel.hpp). Records are bit-identical at every thread
  /// count; only batch *completion order* depends on scheduling. The split
  /// pays off when fewer specs than workers run (4-core VM, one error-free
  /// 12-layer brickwork spec: 20 qubits 358 → 153 ms and 22 qubits
  /// 2089 → 820 ms for threads 1 → 4); a busy executor never splits.
  std::size_t threads = 1;
  /// Master seed; trajectory t uses substream (t+1) so results are
  /// reproducible regardless of worker scheduling.
  std::uint64_t seed = 0x5EEDBA5EDULL;
  /// Optional pre-built execution plan. When set, BE skips the per-call
  /// `Backend::make_plan` (fusion + lowering) and sweeps this plan instead —
  /// the hook the `ptsbe::serve` engine's plan cache injects through. Must
  /// come from `make_plan` of a backend constructed with the *same*
  /// name/config against the *same* program; records are bit-identical to a
  /// plan-less run by the ExecPlan determinism contract.
  std::shared_ptr<const ExecPlan> plan;
};

/// Everything BE produces for one trajectory specification.
struct TrajectoryBatch {
  /// Index of the spec this batch realises.
  std::size_t spec_index = 0;
  /// The spec itself (branch list = error-provenance labels).
  TrajectorySpec spec;
  /// Measurement records (bits of measured qubits, program order).
  std::vector<std::uint64_t> records;
  /// Realised joint probability: for unitary-mixture programs this equals
  /// the nominal probability; for general channels it is the product of the
  /// realised ⟨ψ|K†K|ψ⟩ along the preparation — the importance weight for
  /// proportional estimators. 0 marks an *unrealizable* spec (a
  /// general-Kraus branch hit zero probability at execution time, e.g. a
  /// second amplitude-damping decay on an already-decayed qubit); such
  /// batches carry no records.
  double realized_probability = 1.0;
};

/// Full BE output.
struct Result {
  std::vector<TrajectoryBatch> batches;
  /// Wall-clock split (seconds): state preparations vs bulk sampling —
  /// the two regimes whose asymmetry drives Fig. 4/5.
  double prepare_seconds = 0.0;
  double sample_seconds = 0.0;

  /// Total shots across batches.
  [[nodiscard]] std::uint64_t total_shots() const noexcept;
  /// Fraction of distinct records among all shots (Fig. 4's right axis).
  [[nodiscard]] double unique_shot_fraction() const;
};

/// Consumer of completed trajectory batches on the streaming path. Workers
/// hand completed batches over a lock-free queue and the executor invokes
/// the sink **only on the calling thread** (`execute_streaming`'s caller),
/// one call at a time — so sinks need no locking of their own and a slow
/// sink never blocks a worker. The sink owns the batch it receives.
using BatchSink = std::function<void(TrajectoryBatch&&)>;

/// Aggregate accounting for a streaming run — everything `Result` carries
/// except the record payload, which has already been handed to the sink.
struct StreamSummary {
  std::size_t num_batches = 0;
  std::uint64_t total_shots = 0;
  /// Wall-clock split (seconds): state preparations vs bulk sampling.
  double prepare_seconds = 0.0;
  double sample_seconds = 0.0;
};

/// Execute `specs` against `noisy` with batched sampling.
///
/// The backend named by `options.backend` is resolved once through the
/// BackendRegistry and shared across all simulated devices. Each spec's
/// trajectory is prepared once by the plan walk — unitary-mixture branches
/// apply U_k directly, general branches apply K_k/√p with the realised p
/// accumulated into the batch's importance weight — and its shot budget
/// drawn in bulk by the leaf sampler.
///
/// \throws precondition_error for unknown backend names or programs the
///         chosen backend does not support.
[[nodiscard]] Result execute(const NoisyCircuit& noisy,
                             const std::vector<TrajectorySpec>& specs,
                             const Options& options = {});

/// Streaming variant of `execute`: each `TrajectoryBatch` is delivered to
/// `sink` (on the calling thread) as its worker finishes it, in
/// **completion order** (use `TrajectoryBatch::spec_index` to recover spec
/// order; with one worker and the independent schedule completion order
/// equals spec order). Per-trajectory randomness is the same substream
/// scheme as `execute`, so the batches are bit-identical to the
/// non-streaming path's at every thread count — only the delivery order
/// changes. Records never accumulate in a `Result`, so dataset generation
/// over huge spec sets runs in bounded memory.
///
/// \throws precondition_error for unknown backend names or unsupported
///         programs; an exception thrown by `sink` propagates to the
///         caller — trajectories already in flight complete (their batches
///         are dropped), pending ones are skipped before preparation.
StreamSummary execute_streaming(const NoisyCircuit& noisy,
                                const std::vector<TrajectorySpec>& specs,
                                const Options& options, const BatchSink& sink);

}  // namespace ptsbe::be

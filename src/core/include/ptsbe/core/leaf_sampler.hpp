#pragma once

/// \file leaf_sampler.hpp
/// \brief Batched Execution's one leaf sampler: a prepared trajectory's
/// bulk draw, split across idle workers without changing a bit.
///
/// Both schedules end a trajectory the same way: a prepared `SimState`
/// (one per spec under the independent schedule, one per trie leaf under
/// the shared-prefix schedule) hands its spec group to `LeafSampler`, which
/// draws each spec's shot budget and emits its batch.
///
/// A budget of at most `kSampleChunk` shots samples inline on the preparing
/// worker (`sample_records`): no task, no atomic, no allocation beyond the
/// records. A larger budget on a dense state is split into chunks of
/// `kSampleChunk` draws. The chunks jointly own a leaf context (the
/// prepared state, the records buffer and a countdown); each seeks its copy
/// of the spec's substream to its first draw and writes its exponentials
/// straight into the records buffer (`kernels::draw_exponentials`, whose
/// Philox blocks come from the active kernel set's SIMD fill). The records
/// buffer is advised as transparent huge pages before its one zero-fill,
/// so the fill takes a few hundred page faults instead of one per 4 KiB.
/// The preparing worker runs the first chunk itself and pushes the rest
/// onto its own deque, where idle workers steal them; with one worker they
/// run LIFO before the next spec, so delivery order is unchanged. The chunk
/// that finishes last runs `exponentials_to_records`
/// (ptsbe/common/inverse_cdf.hpp): the prefix sum, the one sequential
/// step, then the division and the bin walk in ranges its idle peers take
/// through `parallel_for`. It emits the batch. No chunk waits on another.
/// A cancelled run leaves the countdown short, so its leaves never emit.
///
/// Records are therefore bit-identical at every thread count, chunk
/// placement and kernel set: draw i of a spec depends only on (substream,
/// i), the prefix sum runs once, sequentially, and each range of the walk
/// starts from the state the sequential walk would reach.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ptsbe/common/rng.hpp"
#include "ptsbe/core/batched_execution.hpp"
#include "ptsbe/core/sim_state.hpp"
#include "ptsbe/core/trajectory_executor.hpp"
#include "ptsbe/core/trajectory_spec.hpp"

namespace ptsbe::be {

/// One worker's accounting slot: single writer (its worker), read after
/// the executor drains. Cache-line sized so workers don't false-share.
struct alignas(64) WorkerAccum {
  std::size_t num_batches = 0;
  std::uint64_t total_shots = 0;
  double prepare_seconds = 0.0;
  double sample_seconds = 0.0;
};

/// The sampling and delivery side of one BE run, shared by every task of
/// both schedules. Must outlive `executor.drain`.
class LeafSampler {
 public:
  /// Spec t samples from `master.substream(t)`.
  LeafSampler(TrajectoryExecutor& executor, const NoisyCircuit& noisy,
              const std::vector<TrajectorySpec>& specs, RngStream master);
  LeafSampler(const LeafSampler&) = delete;
  LeafSampler& operator=(const LeafSampler&) = delete;

  /// Sample every spec of `group` from `state`, prepared on `worker` with
  /// realised probability `realized`, and emit one batch each. Dense states
  /// are read-only while sampling, so the whole group shares `state`;
  /// other states give every spec but the last a fresh clone, because
  /// their sampling may touch the representation (MPS canonicalisation).
  /// Adds the sampling time spent here to `worker`'s slot and returns it.
  double sample(std::size_t worker, SimStatePtr state, double realized,
                std::span<const std::size_t> group);

  /// Emit every spec of `group` as unrealizable (probability 0, no records).
  void emit_unrealizable(std::size_t worker,
                         std::span<const std::size_t> group);

  /// `worker`'s accounting slot, for preparation time measured elsewhere.
  [[nodiscard]] WorkerAccum& accum(std::size_t worker) {
    return accums_[worker];
  }

  /// The per-worker slots merged; call after the drain.
  [[nodiscard]] StreamSummary summary() const;

 private:
  struct SplitLeaf;

  /// Emit spec `t`'s batch.
  void emit(std::size_t worker, std::size_t t,
            std::vector<std::uint64_t> records, double realized);
  void spawn_chunks(std::size_t worker, std::shared_ptr<const SimState> state,
                    double realized, std::size_t t);
  void run_chunk(std::size_t worker, SplitLeaf& leaf, std::uint64_t chunk);

  TrajectoryExecutor& executor_;
  const std::vector<TrajectorySpec>& specs_;
  const std::vector<unsigned> measured_;
  const RngStream master_;
  std::vector<WorkerAccum> accums_;
};

}  // namespace ptsbe::be

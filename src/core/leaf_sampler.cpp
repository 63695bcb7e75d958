#include "ptsbe/core/leaf_sampler.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "ptsbe/common/inverse_cdf.hpp"
#include "ptsbe/common/timer.hpp"
#include "ptsbe/kernels/kernel_set.hpp"

namespace ptsbe::be {

namespace {

/// Advise the 2 MiB-aligned interior of `records`' capacity as transparent
/// huge pages, so that its first touch faults 2 MiB at a time. Advice only:
/// other systems, and THP set to `never`, see no change.
void advise_huge_pages([[maybe_unused]] std::vector<std::uint64_t>& records) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  constexpr std::uintptr_t kHuge = std::uintptr_t{1} << 21;
  const auto begin = reinterpret_cast<std::uintptr_t>(records.data());
  const std::uintptr_t end = begin + records.capacity() * sizeof(std::uint64_t);
  const std::uintptr_t first = (begin + kHuge - 1) & ~(kHuge - 1);
  const std::uintptr_t last = end & ~(kHuge - 1);
  if (first < last)
    (void)::madvise(reinterpret_cast<void*>(first), last - first,
                    MADV_HUGEPAGE);
#endif
}

}  // namespace

/// The context a split leaf's chunk tasks jointly own; the last task to
/// drop it frees the records buffer and its reference to the state.
struct LeafSampler::SplitLeaf {
  std::shared_ptr<const SimState> state;
  RngStream rng;  ///< The spec's substream, positioned at its first draw.
  std::vector<std::uint64_t> records;
  std::atomic<std::uint64_t> chunks_left{0};
  double realized = 0.0;
  std::size_t spec = 0;
};

LeafSampler::LeafSampler(TrajectoryExecutor& executor,
                         const NoisyCircuit& noisy,
                         const std::vector<TrajectorySpec>& specs,
                         RngStream master)
    : executor_(executor),
      specs_(specs),
      measured_(noisy.circuit().measured_qubits()),
      master_(master),
      accums_(executor.num_workers()) {}

double LeafSampler::sample(std::size_t worker, SimStatePtr state,
                           double realized,
                           std::span<const std::size_t> group) {
  const bool in_place = state->samples_in_place();
  // Split leaves share the state; created only when one needs it.
  std::shared_ptr<const SimState> shared;
  SimState* const prepared = state.get();
  double seconds = 0.0;
  for (std::size_t i = 0; i < group.size(); ++i) {
    const std::size_t t = group[i];
    const std::uint64_t shots = specs_[t].shots;
    WallTimer timer;
    if (in_place && shots > kSampleChunk) {
      if (!shared) shared = std::move(state);
      spawn_chunks(worker, shared, realized, t);
      seconds += timer.seconds();
      continue;
    }
    SimStatePtr fork;
    SimState* sampler = prepared;
    if (!in_place && i + 1 < group.size()) {
      fork = prepared->clone();
      sampler = fork.get();
    }
    RngStream rng = master_.substream(t);
    std::vector<std::uint64_t> records =
        sampler->sample_records(shots, rng, measured_);
    seconds += timer.seconds();
    emit(worker, t, std::move(records), realized);
  }
  accums_[worker].sample_seconds += seconds;
  return seconds;
}

void LeafSampler::spawn_chunks(std::size_t worker,
                               std::shared_ptr<const SimState> state,
                               double realized, std::size_t t) {
  const std::uint64_t shots = specs_[t].shots;
  const std::uint64_t chunks = (shots + kSampleChunk - 1) / kSampleChunk;
  auto leaf = std::make_shared<SplitLeaf>();
  leaf->state = std::move(state);
  leaf->rng = master_.substream(t);
  leaf->records.reserve(shots);
  advise_huge_pages(leaf->records);
  leaf->records.resize(shots);
  leaf->chunks_left.store(chunks, std::memory_order_relaxed);
  leaf->realized = realized;
  leaf->spec = t;
  // Later chunks go on this worker's deque for idle workers to steal; this
  // worker draws chunk 0 now.
  for (std::uint64_t c = chunks; c-- > 1;)
    executor_.spawn_from(worker, [this, leaf, c](std::size_t self) {
      WallTimer timer;
      run_chunk(self, *leaf, c);
      accums_[self].sample_seconds += timer.seconds();
    });
  run_chunk(worker, *leaf, 0);
}

void LeafSampler::run_chunk(std::size_t worker, SplitLeaf& leaf,
                            std::uint64_t chunk) {
  if (executor_.cancelled()) return;
  const std::uint64_t first = chunk * kSampleChunk;
  const std::uint64_t count =
      std::min<std::uint64_t>(kSampleChunk, leaf.records.size() - first);
  RngStream rng = leaf.rng;
  rng.skip_doubles(first);
  kernels::draw_exponentials(rng,
                             std::span(leaf.records).subspan(first, count));
  // acq_rel: the last chunk sees every other chunk's words.
  if (leaf.chunks_left.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  if (executor_.cancelled()) return;
  rng = leaf.rng;
  rng.skip_doubles(leaf.records.size());
  leaf.state->records_from_exponentials(leaf.records, rng.exponential(),
                                        measured_);
  emit(worker, leaf.spec, std::move(leaf.records), leaf.realized);
}

void LeafSampler::emit_unrealizable(std::size_t worker,
                                    std::span<const std::size_t> group) {
  for (std::size_t t : group) emit(worker, t, {}, 0.0);
}

void LeafSampler::emit(std::size_t worker, std::size_t t,
                       std::vector<std::uint64_t> records, double realized) {
  TrajectoryBatch batch;
  batch.spec_index = t;
  batch.spec = specs_[t];
  batch.records = std::move(records);
  batch.realized_probability = realized;
  WorkerAccum& accum = accums_[worker];
  accum.num_batches += 1;
  accum.total_shots += batch.records.size();
  executor_.emit(std::move(batch));
}

StreamSummary LeafSampler::summary() const {
  StreamSummary summary;
  for (const WorkerAccum& a : accums_) {
    summary.num_batches += a.num_batches;
    summary.total_shots += a.total_shots;
    summary.prepare_seconds += a.prepare_seconds;
    summary.sample_seconds += a.sample_seconds;
  }
  return summary;
}

}  // namespace ptsbe::be

#pragma once

/// \file merge.hpp
/// \brief Out-of-core k-way merge of sharded PTSB datasets.
///
/// Sharded producers (the net serve layer, partitioned QEC sweeps) each
/// write a spec-ordered dataset covering a subset of the trajectory specs.
/// `merge_datasets` recombines N such shards into one spec-ordered file
/// under a fixed memory budget: one `Reader` per input, one buffered head
/// batch per input, a min-heap on (spec_index, input index), and a
/// `StreamWriter` on the output. Blocks are decoded and re-encoded by the
/// one block codec (`dataset::decode_block` / `encode_block`), which
/// round-trips bit-exactly, so merging the shards of a deterministic job
/// reproduces the local single-process `write_binary` file byte for byte.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ptsbe/core/dataset_reader.hpp"

namespace ptsbe::stats {

/// Knobs for merge_datasets.
struct MergeOptions {
  /// Upper bound on the bytes of batch payload buffered at any instant,
  /// measured at each head batch's decoded size (six fixed words, 16 bytes
  /// per branch pair and 8 per record, whatever layout its block has on
  /// disk: a run block a few hundred bytes long can expand to gigabytes).
  /// The merge holds exactly one head batch per input, so the minimum
  /// feasible budget is the sum of the K current decoded heads; a budget
  /// too small for that \throws runtime_failure rather than silently
  /// overshooting.
  std::uint64_t memory_budget_bytes = 64ULL << 20;

  /// How input files are accessed (see dataset::ViewMode).
  dataset::ViewMode view = dataset::ViewMode::kAuto;
};

/// What one merge did — the bench's throughput numerator.
struct MergeReport {
  std::uint64_t inputs = 0;                ///< Shard files consumed.
  std::uint64_t batches = 0;               ///< Batch blocks written.
  std::uint64_t records = 0;               ///< Measurement records written.
  std::uint64_t bytes_out = 0;             ///< Output file size in bytes.
  std::uint64_t peak_buffered_bytes = 0;   ///< High-water decoded heads.
};

/// Merge `inputs` (each a valid format-v2 or v3 dataset, each
/// spec-ordered) into `out_path`, ordered by (spec_index, input index) —
/// inputs listed first win ties, so the order of `inputs` is part of the
/// result for overlapping shards. Disjoint spec-partitioned shards (the
/// serve/QEC case) have no ties, and their merge is input-order
/// independent.
/// \throws precondition_error when `inputs` is empty;
///         runtime_failure on invalid inputs, write errors, or a memory
///         budget smaller than the K concurrent head batches.
MergeReport merge_datasets(const std::string& out_path,
                           const std::vector<std::string>& inputs,
                           const MergeOptions& options = {});

}  // namespace ptsbe::stats

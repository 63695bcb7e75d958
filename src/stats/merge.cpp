#include "ptsbe/stats/merge.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "ptsbe/common/error.hpp"
#include "ptsbe/core/dataset.hpp"

namespace ptsbe::stats {

namespace {

/// One input shard: its reader and the buffered head batch.
struct Input {
  explicit Input(const std::string& path, dataset::ViewMode view)
      : reader(path, view) {}
  dataset::Reader reader;
  be::TrajectoryBatch head;
  std::uint64_t head_bytes = 0;
  bool exhausted = false;
};

/// A head batch's decoded size: six fixed words, its branch pairs and 8
/// bytes per record (its plain block's size). The budget bounds memory, and
/// a run block on disk can be orders of magnitude smaller than that.
std::uint64_t decoded_bytes(const be::TrajectoryBatch& batch) {
  return 6 * sizeof(std::uint64_t) +
         sizeof(BranchChoice) * batch.spec.branches.size() +
         sizeof(std::uint64_t) * batch.records.size();
}

}  // namespace

MergeReport merge_datasets(const std::string& out_path,
                           const std::vector<std::string>& inputs,
                           const MergeOptions& options) {
  PTSBE_REQUIRE(!inputs.empty(), "merge_datasets needs at least one input");

  MergeReport report;
  report.inputs = inputs.size();

  std::vector<std::unique_ptr<Input>> shards;
  shards.reserve(inputs.size());
  std::uint64_t buffered = 0;

  // Replace a shard's head batch, accounting it at its decoded size.
  const auto advance = [&](Input& shard) {
    buffered -= shard.head_bytes;
    shard.head_bytes = 0;
    if (!shard.reader.next(shard.head)) {
      shard.exhausted = true;
      return;
    }
    shard.head_bytes = decoded_bytes(shard.head);
    buffered += shard.head_bytes;
    report.peak_buffered_bytes =
        std::max(report.peak_buffered_bytes, buffered);
    if (buffered > options.memory_budget_bytes)
      throw runtime_failure(
          "merge memory budget of " +
          std::to_string(options.memory_budget_bytes) +
          " bytes cannot hold the " + std::to_string(inputs.size()) +
          " concurrent head batches (" + std::to_string(buffered) +
          " bytes buffered); raise MergeOptions::memory_budget_bytes");
  };

  for (const std::string& path : inputs) {
    shards.push_back(std::make_unique<Input>(path, options.view));
    advance(*shards.back());
  }

  dataset::StreamWriter writer(out_path);
  for (;;) {
    // Min over the live heads by (spec_index, input index): a linear scan —
    // K is the shard count, tiny next to the per-batch I/O it orders.
    Input* next = nullptr;
    for (const auto& shard : shards) {
      if (shard->exhausted) continue;
      if (next == nullptr || shard->head.spec_index < next->head.spec_index)
        next = shard.get();
    }
    if (next == nullptr) break;
    writer.append(next->head);
    ++report.batches;
    report.records += next->head.records.size();
    advance(*next);
  }
  writer.close();
  report.bytes_out = writer.bytes_written();
  return report;
}

}  // namespace ptsbe::stats

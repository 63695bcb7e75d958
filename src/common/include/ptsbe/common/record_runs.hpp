#pragma once

/// \file record_runs.hpp
/// \brief Visit a record sequence as runs of equal adjacent records.
///
/// The dense samplers emit each trajectory's records sorted, so a batch
/// holds one run per distinct outcome however many shots it has. Tallies
/// that only need "how many of each record" do one update per run instead
/// of one per record: the weighted `BranchTab_add` shape. The dataset
/// block codec stores a batch as these runs when that is smaller. Runs keep
/// sequence order, so unsorted records (stabilizer, MPS) are visited
/// exactly as they come.

#include <cstddef>
#include <cstdint>
#include <span>

namespace ptsbe {

/// One past the last record of the run of equal adjacent records that
/// starts at `begin` (which must be below `records.size()`). Compares eight
/// words at a time against the run's record, so a long run costs one
/// vectorised read.
inline std::size_t run_end(std::span<const std::uint64_t> records,
                           std::size_t begin) {
  const std::uint64_t record = records[begin];
  const std::size_t n = records.size();
  std::size_t end = begin + 1;
  while (n - end >= 8) {
    std::uint64_t differ = 0;
    for (std::size_t k = 0; k < 8; ++k) differ |= records[end + k] ^ record;
    if (differ != 0) break;
    end += 8;
  }
  while (end < n && records[end] == record) ++end;
  return end;
}

/// Call `fn(record, count)` once per maximal run of equal adjacent records,
/// in sequence order; the counts sum to `records.size()`.
template <typename Fn>
void for_each_run(std::span<const std::uint64_t> records, Fn&& fn) {
  for (std::size_t begin = 0; begin < records.size();) {
    const std::size_t end = run_end(records, begin);
    fn(records[begin], static_cast<std::uint64_t>(end - begin));
    begin = end;
  }
}

}  // namespace ptsbe

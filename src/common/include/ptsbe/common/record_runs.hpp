#pragma once

/// \file record_runs.hpp
/// \brief Visit a record sequence as runs of equal adjacent records.
///
/// The dense samplers emit each trajectory's records sorted, so a batch
/// holds one run per distinct outcome however many shots it has. Tallies
/// that only need "how many of each record" do one update per run instead
/// of one per record: the weighted `BranchTab_add` shape. Runs keep
/// sequence order, so unsorted records (stabilizer, MPS) are visited
/// exactly as they come.

#include <cstddef>
#include <cstdint>
#include <span>

namespace ptsbe {

/// Call `fn(record, count)` once per maximal run of equal adjacent records,
/// in sequence order; the counts sum to `records.size()`.
template <typename Fn>
void for_each_run(std::span<const std::uint64_t> records, Fn&& fn) {
  std::size_t begin = 0;
  while (begin < records.size()) {
    const std::uint64_t record = records[begin];
    std::size_t end = begin + 1;
    while (end < records.size() && records[end] == record) ++end;
    fn(record, static_cast<std::uint64_t>(end - begin));
    begin = end;
  }
}

}  // namespace ptsbe

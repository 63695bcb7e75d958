#pragma once

/// \file inverse_cdf.hpp
/// \brief The bulk inverse-CDF shot sampler shared by the dense states.
///
/// Batched Execution draws a trajectory's whole shot budget from its
/// prepared state in one pass over the basis probabilities. The m draws are
/// sorted uniforms from the exponential-spacings method: with
/// E_0 … E_m ~ Exp(1), u_i = (E_0 + … + E_i) / (E_0 + … + E_m).
/// `RngStream::sorted_uniforms` is the sequential reference; the sampler
/// computes the same values in two steps so that all but one chain of
/// additions splits across workers:
///
///  1. `kernels::draw_exponentials` (ptsbe/kernels/kernel_set.hpp) writes
///     E_i, bit-cast, into the caller's record words. E_i depends only on
///     (stream, i), so any slice of the words can be drawn on its own.
///  2. `exponentials_to_records` runs the prefix sum in the reference's
///     order — the one sequential step — and then the division by the
///     total and the bin walk in ranges of `kSampleChunk` draws, split
///     across the calling thread's team (ptsbe/common/parallel.hpp). Each
///     range resumes the sequential walk at the bin and running cumulative
///     where that walk would meet its first draw, so every record is
///     bit-identical to the reference. It works in place: each word is
///     read as a partial sum before its record overwrites it, and each
///     occupied bin's record is computed once per range (the output is
///     sorted, so equal records are adjacent).
///
/// Cost O(2^n + m) with no scratch beyond the m record words and one
/// (bin, cumulative) pair per range.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ptsbe/common/bits.hpp"
#include "ptsbe/common/parallel.hpp"

namespace ptsbe {

/// Draws per sampling range: a split leaf's chunks
/// (ptsbe/core/leaf_sampler.hpp) and the bin walk's ranges. One draw costs
/// ~10–25 ns, so a range is a few ms of work: task overhead stays under
/// 0.1 %, and a 32M-shot leaf still yields ~120 pieces for idle workers to
/// take. Budgets up to one range never split.
inline constexpr std::uint64_t kSampleChunk = std::uint64_t{1} << 18;

/// Turn `words` (E_0 … E_{m-1} from `draw_exponentials`) and `last` (E_m)
/// into m sorted records, in place. `mass(i)` is the probability of basis
/// state i < `dim`; a draw lands on the first bin whose running cumulative
/// exceeds it, and draws the rounded cumulative never reaches land on the
/// last bin. A record is the bin index reduced to the `measured` qubits'
/// bits (`measured` empty: the full index). `mass` may run on several
/// threads at once.
template <typename Mass>
void exponentials_to_records(std::span<std::uint64_t> words, double last,
                             std::uint64_t dim, Mass&& mass,
                             std::span<const unsigned> measured) {
  const std::size_t count = words.size();
  if (count == 0) return;
  double sum = 0.0;
  for (std::uint64_t& word : words) {
    sum += std::bit_cast<double>(word);
    word = std::bit_cast<std::uint64_t>(sum);
  }
  const double total = sum + last;
  const auto record_of = [measured](std::uint64_t bin) {
    return measured.empty() ? bin : extract_bits(bin, measured);
  };
  // The uniform of draw `ptr`, divided once per draw.
  const auto uniform = [&](std::size_t ptr) {
    return std::bit_cast<double>(words[ptr]) / total;
  };
  // Where the sequential walk meets a range's first draw: the bin it lands
  // on and the cumulative before that bin's mass, both as that walk
  // computes them. Range 0 starts before bin 0.
  struct Resume {
    std::uint64_t bin = 0;
    double cdf = 0.0;
  };
  const auto walk = [&](std::uint64_t r, Resume at) {
    std::size_t ptr = r * kSampleChunk;
    const std::size_t end = std::min<std::size_t>(count, ptr + kSampleChunk);
    double u = uniform(ptr);
    double cdf = at.cdf;
    for (std::uint64_t i = at.bin; i < dim; ++i) {
      cdf += mass(i);
      if (!(u < cdf)) continue;
      const std::uint64_t record = record_of(i);
      do {
        words[ptr] = record;
        if (++ptr == end) return;
        u = uniform(ptr);
      } while (u < cdf);
    }
    std::fill(words.begin() + static_cast<std::ptrdiff_t>(ptr),
              words.begin() + static_cast<std::ptrdiff_t>(end),
              record_of(dim - 1));
  };
  const std::uint64_t ranges = (count + kSampleChunk - 1) / kSampleChunk;
  if (ranges == 1) return walk(0, {});
  std::vector<Resume> resume(ranges);
  std::uint64_t r = 1;
  double cdf = 0.0;
  for (std::uint64_t i = 0; i < dim && r < ranges; ++i) {
    const double before = cdf;
    cdf += mass(i);
    while (r < ranges && uniform(r * kSampleChunk) < cdf)
      resume[r++] = {i, before};
  }
  for (; r < ranges; ++r) resume[r] = {dim, cdf};
  parallel_for(ranges,
               [&](std::uint64_t range) { walk(range, resume[range]); });
}

}  // namespace ptsbe

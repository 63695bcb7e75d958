#pragma once

/// \file inverse_cdf.hpp
/// \brief The bulk inverse-CDF shot sampler shared by the dense states.
///
/// Batched Execution draws a trajectory's whole shot budget from its
/// prepared state in one pass over the basis probabilities. The m draws are
/// sorted uniforms from the exponential-spacings method: with
/// E_0 … E_m ~ Exp(1), u_i = (E_0 + … + E_i) / (E_0 + … + E_m).
/// `RngStream::sorted_uniforms` is the sequential reference; this header
/// computes the same values in two steps so the costly one can be split:
///
///  1. `draw_exponentials` writes E_i, bit-cast, into the caller's record
///     words. E_i depends only on (stream, i), so a worker that seeks its
///     copy of the stream to draw `first` (`RngStream::skip_doubles`)
///     writes exactly the words a sequential pass would.
///  2. `exponentials_to_records` runs the prefix sum, the division by the
///     total and the bin walk in the reference's order and with its exact
///     expressions, so every record is bit-identical to it. It works in
///     place: each word is read as a partial sum before its record
///     overwrites it, and each occupied bin's record is computed once (the
///     output is sorted, so equal records are adjacent).
///
/// Cost O(2^n + m) with no scratch beyond the m record words.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "ptsbe/common/bits.hpp"
#include "ptsbe/common/rng.hpp"

namespace ptsbe {

/// Fill `words` with the next `words.size()` Exp(1) draws of `rng`, each
/// stored as the bits of its double.
inline void draw_exponentials(RngStream& rng,
                              std::span<std::uint64_t> words) noexcept {
  for (std::uint64_t& word : words)
    word = std::bit_cast<std::uint64_t>(rng.exponential());
}

/// Turn `words` (E_0 … E_{m-1} from `draw_exponentials`) and `last` (E_m)
/// into m sorted records, in place. `mass(i)` is the probability of basis
/// state i < `dim`; a draw lands on the first bin whose running cumulative
/// exceeds it, and draws the rounded cumulative never reaches land on the
/// last bin. A record is the bin index reduced to the `measured` qubits'
/// bits (`measured` empty: the full index).
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
  // The current draw's uniform, divided once per draw.
  const auto uniform = [&](std::size_t ptr) {
    return std::bit_cast<double>(words[ptr]) / total;
  };
  std::size_t ptr = 0;
  double u = uniform(0);
  double cdf = 0.0;
  for (std::uint64_t i = 0; i < dim; ++i) {
    cdf += mass(i);
    if (!(u < cdf)) continue;
    const std::uint64_t record = record_of(i);
    do {
      words[ptr] = record;
      if (++ptr == count) return;
      u = uniform(ptr);
    } while (u < cdf);
  }
  std::fill(words.begin() + static_cast<std::ptrdiff_t>(ptr), words.end(),
            record_of(dim - 1));
}

}  // namespace ptsbe

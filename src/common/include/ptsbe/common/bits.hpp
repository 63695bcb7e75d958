#pragma once

/// \file bits.hpp
/// \brief Bit-manipulation helpers for amplitude indexing.
///
/// Statevector kernels address amplitudes by basis-state index; these helpers
/// insert/extract qubit bits into such indices. Qubit 0 is the least
/// significant bit throughout PTSBE.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

namespace ptsbe {

/// 2^n as an unsigned 64-bit value. Precondition: n < 64.
constexpr std::uint64_t pow2(unsigned n) noexcept { return 1ULL << n; }

/// Extract the bit of `index` at position `qubit`.
constexpr unsigned get_bit(std::uint64_t index, unsigned qubit) noexcept {
  return static_cast<unsigned>((index >> qubit) & 1ULL);
}

/// Set/clear the bit of `index` at position `qubit`.
constexpr std::uint64_t with_bit(std::uint64_t index, unsigned qubit,
                                 unsigned value) noexcept {
  const std::uint64_t mask = 1ULL << qubit;
  return value ? (index | mask) : (index & ~mask);
}

/// Insert a 0 bit at position `pos`, shifting higher bits up by one.
/// Used to enumerate the 2^(n-1) index pairs a single-qubit gate touches.
constexpr std::uint64_t insert_zero_bit(std::uint64_t index, unsigned pos) noexcept {
  const std::uint64_t low_mask = (1ULL << pos) - 1;
  return ((index & ~low_mask) << 1) | (index & low_mask);
}

/// Insert 0 bits at two distinct positions (pos_low < pos_high refer to
/// positions in the *output*), enumerating the index quadruples a two-qubit
/// gate touches.
constexpr std::uint64_t insert_two_zero_bits(std::uint64_t index, unsigned pos_low,
                                             unsigned pos_high) noexcept {
  return insert_zero_bit(insert_zero_bit(index, pos_low), pos_high);
}

/// Population count.
constexpr unsigned popcount64(std::uint64_t v) noexcept {
  return static_cast<unsigned>(std::popcount(v));
}

/// Parity (popcount mod 2) of v.
constexpr unsigned parity64(std::uint64_t v) noexcept {
  return popcount64(v) & 1u;
}

/// Pack the bits of `index` selected by `qubits` (qubits[0] → output bit 0)
/// — a basis-state index reduced to its measurement record.
constexpr std::uint64_t extract_bits(
    std::uint64_t index, std::span<const unsigned> qubits) noexcept {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < qubits.size(); ++i)
    out |= ((index >> qubits[i]) & 1ULL) << i;
  return out;
}

}  // namespace ptsbe

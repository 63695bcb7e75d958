#pragma once

/// \file philox.hpp
/// \brief Counter-based Philox4x32-10 pseudo-random generator.
///
/// This is the same generator family that cuRAND uses on NVIDIA GPUs (the
/// paper's simulator uses cuRAND for trajectory sampling). A counter-based
/// generator is the natural choice for PTSBE because every trajectory
/// specification can carry its own (seed, counter) coordinates: any worker
/// can regenerate the exact random stream of any trajectory without shared
/// state, which makes batched, embarrassingly-parallel execution bitwise
/// reproducible.
///
/// Reference: Salmon, Moraes, Dror, Shaw — "Parallel random numbers: as easy
/// as 1, 2, 3" (SC'11).

#include <array>
#include <cstdint>

namespace ptsbe {

/// Philox4x32-10 keyed counter permutation.
///
/// Satisfies the `UniformRandomBitGenerator` interface (result_type, min, max,
/// operator()) so it can be plugged into `std::` distributions, and exposes
/// counter manipulation (`set_counter`, `discard`, `discard_blocks`) for
/// stream splitting and positional draws.
class Philox4x32 {
 public:
  using result_type = std::uint32_t;

  /// Construct from a 64-bit seed (becomes the Philox key) and an optional
  /// 64-bit subsequence id placed into the high counter words, giving 2^64
  /// independent subsequences of period 2^66 draws each.
  explicit Philox4x32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                      std::uint64_t subsequence = 0) noexcept {
    key_[0] = static_cast<std::uint32_t>(seed);
    key_[1] = static_cast<std::uint32_t>(seed >> 32);
    ctr_ = {0u, 0u, static_cast<std::uint32_t>(subsequence),
            static_cast<std::uint32_t>(subsequence >> 32)};
    buf_pos_ = 4;  // force generation on first draw
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return 0xFFFFFFFFu; }

  /// Next 32 random bits.
  result_type operator()() noexcept {
    if (buf_pos_ == 4) {
      buf_ = bijection(ctr_, key_);
      advance_counter();
      buf_pos_ = 0;
    }
    return buf_[buf_pos_++];
  }

  /// Next 64 random bits.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t lo = (*this)();
    const std::uint64_t hi = (*this)();
    return (hi << 32) | lo;
  }

  /// Uniform double in [0, 1) with full 53-bit mantissa resolution.
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform value in [0, bound) without modulo bias (Lemire reduction with
  /// rejection).
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    if (bound <= 1) return 0;
    // 64-bit Lemire: use 128-bit multiply-high.
    while (true) {
      const std::uint64_t x = next_u64();
      const unsigned __int128 m =
          static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(bound);
      const std::uint64_t lo = static_cast<std::uint64_t>(m);
      if (lo >= bound || lo >= (0ULL - bound) % bound)
        return static_cast<std::uint64_t>(m >> 64);
    }
  }

  /// Skip the next `n` 32-bit outputs in O(1): the generator then continues
  /// exactly as if `n` calls to operator() had been made. The skip is
  /// relative to the current position, buffered outputs included, and the
  /// counter carries exactly as sequential drawing does.
  void discard(std::uint64_t n) noexcept {
    const auto buffered = static_cast<std::uint64_t>(4 - buf_pos_);
    if (n < buffered) {
      buf_pos_ += static_cast<int>(n);
      return;
    }
    n -= buffered;  // now at the first output of block ctr_
    add_to_counter(n / 4);
    buf_pos_ = 4;
    if (n % 4 != 0) {
      buf_ = bijection(ctr_, key_);
      advance_counter();
      buf_pos_ = static_cast<int>(n % 4);
    }
  }

  /// Jump the counter forward by `n` 128-bit blocks (4 draws each); also
  /// drops any buffered outputs.
  void discard_blocks(std::uint64_t n) noexcept {
    add_to_counter(n);
    buf_pos_ = 4;
  }

  /// Directly position the 128-bit counter. Low 64 bits index draws within a
  /// subsequence; high 64 bits select the subsequence.
  void set_counter(std::uint64_t low, std::uint64_t high) noexcept {
    ctr_ = {static_cast<std::uint32_t>(low), static_cast<std::uint32_t>(low >> 32),
            static_cast<std::uint32_t>(high), static_cast<std::uint32_t>(high >> 32)};
    buf_pos_ = 4;
  }

  /// The raw 10-round Philox4x32 keyed bijection (stateless; exposed for
  /// testing against reference vectors).
  static std::array<std::uint32_t, 4> bijection(
      std::array<std::uint32_t, 4> ctr, std::array<std::uint32_t, 2> key) noexcept {
    for (int round = 0; round < 10; ++round) {
      ctr = single_round(ctr, key);
      key[0] += kWeyl0;
      key[1] += kWeyl1;
    }
    return ctr;
  }

 private:
  static constexpr std::uint32_t kMul0 = 0xD2511F53u;
  static constexpr std::uint32_t kMul1 = 0xCD9E8D57u;
  static constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;
  static constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;

  static std::array<std::uint32_t, 4> single_round(
      const std::array<std::uint32_t, 4>& c,
      const std::array<std::uint32_t, 2>& k) noexcept {
    const std::uint64_t p0 = static_cast<std::uint64_t>(kMul0) * c[0];
    const std::uint64_t p1 = static_cast<std::uint64_t>(kMul1) * c[2];
    return {static_cast<std::uint32_t>(p1 >> 32) ^ c[1] ^ k[0],
            static_cast<std::uint32_t>(p1),
            static_cast<std::uint32_t>(p0 >> 32) ^ c[3] ^ k[1],
            static_cast<std::uint32_t>(p0)};
  }

  void advance_counter() noexcept {
    if (++ctr_[0] == 0)
      if (++ctr_[1] == 0)
        if (++ctr_[2] == 0) ++ctr_[3];
  }

  /// `n` applications of advance_counter() at once.
  void add_to_counter(std::uint64_t n) noexcept {
    const std::uint64_t low =
        (static_cast<std::uint64_t>(ctr_[1]) << 32) | ctr_[0];
    const std::uint64_t sum = low + n;
    ctr_[0] = static_cast<std::uint32_t>(sum);
    ctr_[1] = static_cast<std::uint32_t>(sum >> 32);
    if (sum < low)
      if (++ctr_[2] == 0) ++ctr_[3];
  }

  std::array<std::uint32_t, 2> key_{};
  std::array<std::uint32_t, 4> ctr_{};
  std::array<std::uint32_t, 4> buf_{};
  int buf_pos_ = 4;
};

}  // namespace ptsbe

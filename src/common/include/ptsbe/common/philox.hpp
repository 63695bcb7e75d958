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
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

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
  using Key = std::array<std::uint32_t, 2>;
  /// A 128-bit counter, word 0 least significant.
  using Counter = std::array<std::uint32_t, 4>;

  /// A block fill: for the `blocks` counter blocks from `ctr` on (the
  /// counter carrying through all four words, as the generator's own
  /// increment does), write the bits of each block's two `next_double()`
  /// values to `out[2j]` and `out[2j + 1]`. `block_doubles` is the
  /// reference; the kernel sets carry SIMD fills that equal it bit for bit
  /// (ptsbe/kernels/kernel_set.hpp).
  using BlockFill = void (*)(Key key, Counter ctr, std::uint64_t blocks,
                             std::uint64_t* out);

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
  double next_double() noexcept { return to_double(next_u64()); }

  /// Write the bits of the next `out.size()` `next_double()` values to
  /// `out`, leaving the generator exactly where that many calls would.
  /// Whole counter blocks go through `fill`; buffered outputs and an odd
  /// tail are drawn one at a time.
  void fill_doubles(std::span<std::uint64_t> out, BlockFill fill) noexcept {
    std::size_t i = 0;
    // From an odd 32-bit position (reached only through single operator()
    // draws) the buffer never runs out at the end of a double, so every
    // draw takes this loop.
    for (; i < out.size() && buf_pos_ != 4; ++i)
      out[i] = std::bit_cast<std::uint64_t>(next_double());
    const std::uint64_t blocks = (out.size() - i) / 2;
    fill(key_, ctr_, blocks, out.data() + i);
    add_to_counter(blocks);
    for (i += 2 * blocks; i < out.size(); ++i)
      out[i] = std::bit_cast<std::uint64_t>(next_double());
  }

  /// The reference `BlockFill`: one `bijection` per block.
  static void block_doubles(Key key, Counter ctr, std::uint64_t blocks,
                            std::uint64_t* out) noexcept {
    for (std::uint64_t j = 0; j < blocks; ++j, out += 2) {
      const Counter r = bijection(ctr, key);
      out[0] = std::bit_cast<std::uint64_t>(
          to_double((static_cast<std::uint64_t>(r[1]) << 32) | r[0]));
      out[1] = std::bit_cast<std::uint64_t>(
          to_double((static_cast<std::uint64_t>(r[3]) << 32) | r[2]));
      increment(ctr);
    }
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
  static Counter bijection(Counter ctr, Key key) noexcept {
    for (int round = 0; round < 10; ++round) {
      ctr = single_round(ctr, key);
      key[0] += kWeyl0;
      key[1] += kWeyl1;
    }
    return ctr;
  }

  /// The round multipliers and the key's per-round increments.
  static constexpr std::uint32_t kMul0 = 0xD2511F53u;
  static constexpr std::uint32_t kMul1 = 0xCD9E8D57u;
  static constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;
  static constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;

 private:
  static Counter single_round(const Counter& c, const Key& k) noexcept {
    const std::uint64_t p0 = static_cast<std::uint64_t>(kMul0) * c[0];
    const std::uint64_t p1 = static_cast<std::uint64_t>(kMul1) * c[2];
    return {static_cast<std::uint32_t>(p1 >> 32) ^ c[1] ^ k[0],
            static_cast<std::uint32_t>(p1),
            static_cast<std::uint32_t>(p0 >> 32) ^ c[3] ^ k[1],
            static_cast<std::uint32_t>(p0)};
  }

  /// The top 53 of 64 bits as a double in [0, 1).
  static double to_double(std::uint64_t bits) noexcept {
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
  }

  static void increment(Counter& ctr) noexcept {
    if (++ctr[0] == 0)
      if (++ctr[1] == 0)
        if (++ctr[2] == 0) ++ctr[3];
  }

  void advance_counter() noexcept { increment(ctr_); }

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

  Key key_{};
  Counter ctr_{};
  Counter buf_{};
  int buf_pos_ = 4;
};

}  // namespace ptsbe

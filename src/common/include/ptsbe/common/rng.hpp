#pragma once

/// \file rng.hpp
/// \brief RNG stream abstraction used throughout PTSBE.
///
/// A `RngStream` wraps the counter-based Philox generator and adds the
/// distribution helpers the simulators need (uniform doubles, categorical
/// index selection against a probability table, Gaussian pairs). Streams are
/// *splittable*: `substream(i)` returns an independent generator derived from
/// the same master seed, which is how each trajectory specification gets its
/// own reproducible randomness regardless of which worker executes it.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ptsbe/common/error.hpp"
#include "ptsbe/common/philox.hpp"

namespace ptsbe {

/// Splittable random stream (Philox4x32-10 under the hood).
class RngStream {
 public:
  /// Master stream for `seed`, subsequence 0.
  explicit RngStream(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept
      : seed_(seed), gen_(seed, 0) {}

  /// Stream for (seed, subsequence) coordinates.
  RngStream(std::uint64_t seed, std::uint64_t subsequence) noexcept
      : seed_(seed), gen_(seed, subsequence) {}

  /// Independent stream number `i` derived from the same master seed.
  /// Substream 0 is distinct from the master stream's own subsequence space
  /// because indices are offset by one.
  [[nodiscard]] RngStream substream(std::uint64_t i) const noexcept {
    return RngStream(seed_, i + 1);
  }

  /// Master seed this stream (and its substreams) derive from.
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Uniform double in [0, 1).
  double uniform() noexcept { return gen_.next_double(); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * gen_.next_double();
  }

  /// Uniform integer in [0, bound). bound == 0 yields 0.
  std::uint64_t uniform_index(std::uint64_t bound) noexcept {
    return gen_.next_below(bound);
  }

  /// Raw 64 random bits.
  std::uint64_t bits64() noexcept { return gen_.next_u64(); }

  /// Positional seek: skip the next `count` double draws (`uniform()`,
  /// `exponential()`; 64 bits each) in O(1). The stream then yields exactly
  /// what it would after `count` sequential draws from its current
  /// position, so several workers can each regenerate their own slice of
  /// one stream's draws. Precondition: count < 2^63.
  void skip_doubles(std::uint64_t count) noexcept { gen_.discard(2 * count); }

  /// Sample an index from an (unnormalised) non-negative weight table by
  /// inverse CDF. Returns weights.size()-1 if rounding pushes the draw past
  /// the last cumulative bin. Empty tables are a precondition violation.
  std::size_t categorical(std::span<const double> weights) {
    PTSBE_REQUIRE(!weights.empty(), "categorical() needs at least one weight");
    double total = 0.0;
    for (double w : weights) total += w;
    PTSBE_REQUIRE(total > 0.0, "categorical() weights must have positive sum");
    const double r = uniform() * total;
    double acc = 0.0;
    for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
      acc += weights[i];
      if (r < acc) return i;
    }
    return weights.size() - 1;
  }

  /// `count` sorted uniform draws in [0,1) by the exponential-spacings
  /// method, produced already sorted in O(count) time. This is the
  /// sequential reference for the bulk inverse-CDF shot sampler
  /// (ptsbe/common/inverse_cdf.hpp), which computes the same values in
  /// place and in parallel pieces.
  [[nodiscard]] std::vector<double> sorted_uniforms(std::size_t count) {
    std::vector<double> out(count);
    // Spacings method: E_i ~ Exp(1); prefix sums normalised by the total of
    // count+1 exponentials are the order statistics of count uniforms.
    double acc = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      acc += exponential();
      out[i] = acc;
    }
    const double total = acc + exponential();
    for (double& v : out) v /= total;
    return out;
  }

  /// Standard exponential variate (rate 1).
  double exponential() noexcept { return exponential_of(gen_.next_double()); }

  /// The exponential variate `exponential()` makes of the uniform u in
  /// [0, 1): -log(1 - u), where 1 - u in (0, 1] avoids log(0).
  static double exponential_of(double u) noexcept { return -std::log(1.0 - u); }

  /// UniformRandomBitGenerator access for std:: distributions.
  Philox4x32& raw() noexcept { return gen_; }

 private:
  std::uint64_t seed_;
  Philox4x32 gen_;
};

}  // namespace ptsbe

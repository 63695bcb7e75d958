// Unit tests for ptsbe/common: Philox RNG, RngStream, bit utilities.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "ptsbe/common/bits.hpp"
#include "ptsbe/common/philox.hpp"
#include "ptsbe/common/rng.hpp"
#include "ptsbe/common/version.hpp"

namespace ptsbe {
namespace {

TEST(Philox, KnownAnswerZeroKeyZeroCounter) {
  // Reference vector from the Random123 distribution (philox4x32-10,
  // counter = 0, key = 0).
  const auto out = Philox4x32::bijection({0, 0, 0, 0}, {0, 0});
  EXPECT_EQ(out[0], 0x6627e8d5u);
  EXPECT_EQ(out[1], 0xe169c58du);
  EXPECT_EQ(out[2], 0xbc57ac4cu);
  EXPECT_EQ(out[3], 0x9b00dbd8u);
}

TEST(Philox, KnownAnswerAllOnes) {
  const auto out = Philox4x32::bijection(
      {0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu},
      {0xffffffffu, 0xffffffffu});
  EXPECT_EQ(out[0], 0x408f276du);
  EXPECT_EQ(out[1], 0x41c83b0eu);
  EXPECT_EQ(out[2], 0xa20bc7c6u);
  EXPECT_EQ(out[3], 0x6d5451fdu);
}

TEST(Philox, DeterministicAcrossInstances) {
  Philox4x32 a(42, 7), b(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Philox, SubsequencesDiffer) {
  Philox4x32 a(42, 0), b(42, 1);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) any_diff |= (a() != b());
  EXPECT_TRUE(any_diff);
}

TEST(Philox, DiscardBlocksMatchesManualDraws) {
  Philox4x32 a(123), b(123);
  for (int i = 0; i < 8; ++i) (void)a();  // 2 blocks
  b.discard_blocks(2);
  EXPECT_EQ(a(), b());
}

TEST(Philox, NextBelowIsUnbiasedEnough) {
  Philox4x32 g(99);
  std::array<int, 5> counts{};
  for (int i = 0; i < 50000; ++i) ++counts[g.next_below(5)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 450);
}

TEST(Philox, DoublesInUnitInterval) {
  Philox4x32 g(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = g.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngStream, SubstreamsAreIndependentAndReproducible) {
  RngStream master(2024);
  RngStream s1 = master.substream(5);
  RngStream s2 = master.substream(5);
  RngStream s3 = master.substream(6);
  bool all_eq = true, any_diff = false;
  for (int i = 0; i < 50; ++i) {
    const double a = s1.uniform(), b = s2.uniform(), c = s3.uniform();
    all_eq &= (a == b);
    any_diff |= (a != c);
  }
  EXPECT_TRUE(all_eq);
  EXPECT_TRUE(any_diff);
}

TEST(RngStream, CategoricalRespectsWeights) {
  RngStream rng(11);
  const std::vector<double> w{0.1, 0.0, 0.9};
  int hits2 = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::size_t k = rng.categorical(w);
    ASSERT_NE(k, 1u);  // zero-weight bin never selected
    hits2 += (k == 2);
  }
  EXPECT_NEAR(hits2 / 20000.0, 0.9, 0.02);
}

TEST(RngStream, CategoricalRejectsEmptyAndZero) {
  RngStream rng(1);
  EXPECT_THROW((void)rng.categorical(std::vector<double>{}),
               precondition_error);
  EXPECT_THROW((void)rng.categorical(std::vector<double>{0.0, 0.0}),
               precondition_error);
}

TEST(RngStream, SortedUniformsAreSortedAndUniform) {
  RngStream rng(3);
  const auto u = rng.sorted_uniforms(10000);
  ASSERT_EQ(u.size(), 10000u);
  EXPECT_TRUE(std::is_sorted(u.begin(), u.end()));
  EXPECT_GE(u.front(), 0.0);
  EXPECT_LT(u.back(), 1.0);
  // Mean of U(0,1) order statistics overall is 1/2.
  const double mean = std::accumulate(u.begin(), u.end(), 0.0) / u.size();
  EXPECT_NEAR(mean, 0.5, 0.01);
}

TEST(RngStream, SortedUniformsEmptyAndSingle) {
  RngStream rng(4);
  EXPECT_TRUE(rng.sorted_uniforms(0).empty());
  const auto one = rng.sorted_uniforms(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_GE(one[0], 0.0);
  EXPECT_LT(one[0], 1.0);
}

TEST(Bits, InsertZeroBit) {
  EXPECT_EQ(insert_zero_bit(0b0u, 0), 0b0u);
  EXPECT_EQ(insert_zero_bit(0b1u, 0), 0b10u);
  EXPECT_EQ(insert_zero_bit(0b11u, 1), 0b101u);
  EXPECT_EQ(insert_zero_bit(0b111u, 2), 0b1011u);
}

TEST(Bits, InsertTwoZeroBitsEnumeratesQuads) {
  // For qubits {1, 3} on 4 qubits, bases must have bits 1 and 3 clear.
  std::set<std::uint64_t> bases;
  for (std::uint64_t i = 0; i < 4; ++i)
    bases.insert(insert_two_zero_bits(i, 1, 3));
  EXPECT_EQ(bases, (std::set<std::uint64_t>{0b0000, 0b0001, 0b0100, 0b0101}));
}

TEST(Bits, GetWithBitRoundTrip) {
  const std::uint64_t v = 0b1010;
  EXPECT_EQ(get_bit(v, 1), 1u);
  EXPECT_EQ(get_bit(v, 0), 0u);
  EXPECT_EQ(with_bit(v, 0, 1), 0b1011u);
  EXPECT_EQ(with_bit(v, 3, 0), 0b0010u);
}

TEST(Bits, Parity) {
  EXPECT_EQ(parity64(0b111), 1u);
  EXPECT_EQ(parity64(0b1111), 0u);
  EXPECT_EQ(popcount64(0xFFULL), 8u);
}

TEST(Version, NonEmpty) { EXPECT_STRNE(version(), ""); }

}  // namespace
}  // namespace ptsbe

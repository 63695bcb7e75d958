// Unit tests for ptsbe/common: Philox RNG and every kernel set's Philox
// block fill, RngStream, the bulk inverse-CDF sampler, bit utilities.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "ptsbe/common/bits.hpp"
#include "ptsbe/common/inverse_cdf.hpp"
#include "ptsbe/common/philox.hpp"
#include "ptsbe/common/rng.hpp"
#include "ptsbe/common/version.hpp"
#include "ptsbe/kernels/kernel_set.hpp"
#include "on_worker.hpp"

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

TEST(Philox, DiscardMatchesSequentialOutputs) {
  // Every (position within a block, skip length) pair, including skips
  // that stay inside the buffered block and ones that end mid-block.
  for (std::uint64_t start = 0; start < 6; ++start) {
    for (std::uint64_t n = 0; n < 14; ++n) {
      Philox4x32 sequential(321, 9), seeked(321, 9);
      for (std::uint64_t i = 0; i < start; ++i) {
        (void)sequential();
        (void)seeked();
      }
      for (std::uint64_t i = 0; i < n; ++i) (void)sequential();
      seeked.discard(n);
      for (int i = 0; i < 9; ++i)
        ASSERT_EQ(seeked(), sequential()) << "start " << start << " n " << n;
    }
  }
}

TEST(Philox, DiscardCarriesIntoTheSubsequenceWords) {
  // Three blocks past the last low-counter value: sequential drawing
  // carries into the high words, and so must the seek.
  Philox4x32 sequential(5), seeked(5);
  sequential.set_counter(~std::uint64_t{0} - 1, 7);
  seeked.set_counter(~std::uint64_t{0} - 1, 7);
  (void)sequential();
  (void)seeked();
  for (int i = 0; i < 13; ++i) (void)sequential();
  seeked.discard(13);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(seeked(), sequential());
}

TEST(Philox, BlockFillMatchesNextDoubleOnEverySet) {
  // Every compiled block fill, through `fill_doubles`, writes the bits of
  // exactly the doubles that sequential `next_double()` calls return, and
  // leaves the generator where they leave it. Starts: after 0–3 buffered
  // 32-bit outputs, after a seek, and just below the 2^32 carry of counter
  // word 0 and the 2^64 carry into the subsequence words (with word 2
  // carrying into word 3), where a vector step crosses the wrap.
  struct Start {
    const char* name;
    void (*position)(Philox4x32&);
  };
  const Start starts[] = {
      {"fresh", [](Philox4x32&) {}},
      {"1 output", [](Philox4x32& g) { (void)g(); }},
      {"2 outputs", [](Philox4x32& g) { (void)g(), (void)g(); }},
      {"3 outputs", [](Philox4x32& g) { (void)g(), (void)g(), (void)g(); }},
      {"skip_doubles", [](Philox4x32& g) { g.discard(2 * 1001); }},
      {"word 0 carry",
       [](Philox4x32& g) { g.set_counter(0xFFFFFFFFull - 2, 9); }},
      {"subsequence carry", [](Philox4x32& g) {
         g.set_counter(~std::uint64_t{0} - 5, 0xFFFFFFFFull);
       }}};
  std::vector<std::pair<const char*, Philox4x32::BlockFill>> fills = {
      {"reference", &Philox4x32::block_doubles}};
  for (const kernels::KernelSet* ks : kernels::available_sets())
    fills.emplace_back(ks->name, ks->philox_doubles);
  for (const auto& [set, fill] : fills) {
    for (const Start& start : starts) {
      for (const std::size_t n :
           {0u, 1u, 15u, 16u, 17u, (1u << 18) + 3}) {
        Philox4x32 sequential(0x5eed, 3);
        start.position(sequential);
        Philox4x32 filled = sequential;
        std::vector<std::uint64_t> expected(n), words(n);
        for (std::uint64_t& e : expected)
          e = std::bit_cast<std::uint64_t>(sequential.next_double());
        filled.fill_doubles(words, fill);
        ASSERT_EQ(words, expected)
            << set << ", " << start.name << ", n " << n;
        for (int i = 0; i < 9; ++i)
          ASSERT_EQ(filled(), sequential())
              << set << ", " << start.name << ", n " << n;
      }
    }
  }
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

TEST(RngStream, SkipDoublesMatchesSequentialDraws) {
  // A stream positioned d doubles ahead yields exactly what d sequential
  // draws leave behind: d even and odd, from a fresh substream and from one
  // that has already drawn an odd number of doubles (a half-used block).
  const RngStream master(77);
  for (const std::uint64_t drawn : {0u, 3u}) {
    for (const std::uint64_t d : {0u, 1u, 2u, 7u, 10u, 1001u}) {
      RngStream sequential = master.substream(4);
      for (std::uint64_t i = 0; i < drawn; ++i) (void)sequential.uniform();
      RngStream seeked = sequential;
      for (std::uint64_t i = 0; i < d; ++i) (void)sequential.exponential();
      seeked.skip_doubles(d);
      for (int i = 0; i < 9; ++i)
        ASSERT_EQ(seeked.exponential(), sequential.exponential())
            << "drawn " << drawn << " d " << d;
    }
  }
}

TEST(InverseCdf, ChunkedDrawsMatchSortedUniformsReference) {
  // Exponentials drawn in seeked chunks (out of order) through the active
  // kernel set's fill, then the in-place scan + division + bin walk on a
  // worker of a 4-worker executor, so the walk's ranges split, must
  // reproduce the sequential reference: sorted_uniforms, one cumulative
  // pass, per-shot extract_bits. Counts cover one walk range, one range
  // + 1 and three ranges + 5. The masses sum to just under 1, so the
  // numeric tail lands on the last bin, and the later ranges start there.
  // The walk reads each bin's mass at most twice plus once per range.
  const std::array<double, 8> mass{0.25, 0.0, 0.125, 0.3, 0.0, 0.2, 0.1, 0.0};
  const std::array<unsigned, 2> measured = {2, 0};
  const RngStream master(2024);
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, std::size_t{5}, std::size_t{1001},
        kSampleChunk, kSampleChunk + 1, 3 * kSampleChunk + 5}) {
    RngStream ref_rng = master.substream(1);
    const std::vector<double> u = ref_rng.sorted_uniforms(count);
    std::vector<std::uint64_t> expected(count);
    std::size_t ptr = 0;
    double acc = 0.0;
    for (std::uint64_t i = 0; i < mass.size() && ptr < count; ++i) {
      acc += mass[i];
      while (ptr < count && u[ptr] < acc) expected[ptr++] = i;
    }
    for (; ptr < count; ++ptr) expected[ptr] = mass.size() - 1;
    for (std::uint64_t& e : expected) e = extract_bits(e, measured);

    std::vector<std::uint64_t> words(count);
    // Draw chunks whose edges fall inside the walk's ranges.
    const std::size_t chunk = count > 5000 ? 100003 : 100;
    for (std::size_t first = (count / chunk) * chunk;; first -= chunk) {
      RngStream rng = master.substream(1);
      rng.skip_doubles(first);
      const std::size_t n = std::min(chunk, count - first);
      kernels::draw_exponentials(rng, std::span(words).subspan(first, n));
      if (first == 0) break;
    }
    RngStream tail = master.substream(1);
    tail.skip_doubles(count);
    const double last = tail.exponential();
    std::atomic<std::uint64_t> mass_reads{0};
    (void)test::on_worker(4, [&] {
      exponentials_to_records(
          words, last, mass.size(),
          [&](std::uint64_t i) {
            mass_reads.fetch_add(1, std::memory_order_relaxed);
            return mass[i];
          },
          measured);
      return true;
    });
    const std::uint64_t ranges = (count + kSampleChunk - 1) / kSampleChunk;
    EXPECT_EQ(words, expected) << "count " << count;
    EXPECT_LE(mass_reads.load(), 2 * mass.size() + ranges)
        << "count " << count;
  }
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

// Decoder-layer tests: the qec::Decoder interface, the exact lookup table,
// and the union-find (cluster growth + peeling) decoder. The contract every
// decoder must honour: the returned correction kills the syndrome
// (css_syndrome(supports, error ^ correction) == 0); the quality bar: up to
// ⌊(d−1)/2⌋ errors, the correction is *logically* equivalent to the error
// (their difference is a stabilizer, so the decoded logical value matches).
// Strict mask equality between two decoders is deliberately not asserted —
// degenerate minimum-weight corrections differ by stabilizers and are all
// equally right.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "ptsbe/common/bits.hpp"
#include "ptsbe/common/error.hpp"
#include "ptsbe/qec/codes.hpp"
#include "ptsbe/qec/decoder.hpp"
#include "ptsbe/qec/memory.hpp"
#include "ptsbe/qec/spacetime.hpp"

namespace ptsbe::qec {
namespace {

/// All error masks over n qubits of exactly weight w (ascending numeric
/// order — deterministic enumeration).
std::vector<std::uint64_t> masks_of_weight(unsigned n, unsigned w) {
  std::vector<std::uint64_t> out;
  const std::uint64_t limit = 1ULL << n;
  for (std::uint64_t m = 0; m < limit; ++m)
    if (static_cast<unsigned>(popcount64(m)) == w) out.push_back(m);
  return out;
}

/// Logical value the decoder assigns to readout `error` (0 = corrected).
unsigned decoded_logical(const Decoder& dec,
                         const std::vector<std::uint64_t>& supports,
                         std::uint64_t logical, std::uint64_t error) {
  const std::uint64_t corrected =
      error ^ dec.decode(css_syndrome(supports, error));
  return parity64(corrected & logical);
}

TEST(DecoderInterfaceTest, NamesAndFactory) {
  const CssCode rep = repetition_code(3);
  EXPECT_EQ(make_decoder("lookup", rep)->name(), "lookup");
  EXPECT_EQ(make_decoder("union-find", rep)->name(), "union-find");
  EXPECT_THROW((void)make_decoder("bogus", rep), precondition_error);
  // The repetition code has no X-type checks: an X-basis decoder for it is
  // undecodable and must be refused, not silently wrong.
  EXPECT_THROW((void)make_decoder("union-find", rep, CssBasis::kX),
               precondition_error);
  // Steane's qubits sit in three Z-checks each — not a matchable graph.
  EXPECT_THROW((void)make_decoder("union-find", steane()), precondition_error);
  EXPECT_NO_THROW((void)make_decoder("lookup", steane()));
}

// Satellite: lookup vs union-find agree on ALL single- and two-error
// syndromes for d ∈ {3, 5} — same syndrome killed, same logical class.
TEST(DecoderAgreementTest, LookupVsUnionFindSingleAndDoubleErrors) {
  for (unsigned d : {3u, 5u}) {
    const CssCode code = repetition_code(d);
    const auto lookup = make_decoder("lookup", code);
    const auto uf = make_decoder("union-find", code);
    for (unsigned w : {1u, 2u}) {
      for (std::uint64_t e : masks_of_weight(code.n, w)) {
        const std::uint64_t s = css_syndrome(code.z_supports, e);
        const std::uint64_t cl = lookup->decode(s);
        const std::uint64_t cu = uf->decode(s);
        // Both corrections kill the syndrome...
        EXPECT_EQ(css_syndrome(code.z_supports, cl), s)
            << "lookup, d=" << d << " e=" << e;
        EXPECT_EQ(css_syndrome(code.z_supports, cu), s)
            << "union-find, d=" << d << " e=" << e;
        // ...and agree exactly on the logical class (difference is a
        // stabilizer, never a logical operator).
        EXPECT_EQ(parity64((cl ^ cu) & code.logical_z.z), 0u)
            << "d=" << d << " w=" << w << " e=" << e;
      }
    }
  }
}

// Up to ⌊(d−1)/2⌋ errors both decoders recover the exact logical value.
TEST(DecoderCorrectnessTest, CorrectableRepetitionErrorsAreCorrected) {
  for (unsigned d : {3u, 5u, 7u}) {
    const CssCode code = repetition_code(d);
    const auto lookup = make_decoder("lookup", code);
    const auto uf = make_decoder("union-find", code);
    for (unsigned w = 1; w <= (d - 1) / 2; ++w) {
      for (std::uint64_t e : masks_of_weight(code.n, w)) {
        EXPECT_EQ(
            decoded_logical(*lookup, code.z_supports, code.logical_z.z, e), 0u)
            << "lookup d=" << d << " e=" << e;
        EXPECT_EQ(decoded_logical(*uf, code.z_supports, code.logical_z.z, e),
                  0u)
            << "union-find d=" << d << " e=" << e;
      }
    }
  }
}

TEST(DecoderCorrectnessTest, SurfaceCodeSingleErrorsAreCorrected) {
  const CssCode code = rotated_surface_code(3);
  const auto lookup = make_decoder("lookup", code);
  const auto uf = make_decoder("union-find", code);
  for (std::uint64_t e : masks_of_weight(code.n, 1)) {
    EXPECT_EQ(decoded_logical(*lookup, code.z_supports, code.logical_z.z, e),
              0u)
        << "lookup e=" << e;
    EXPECT_EQ(decoded_logical(*uf, code.z_supports, code.logical_z.z, e), 0u)
        << "union-find e=" << e;
  }
}

TEST(DecoderCorrectnessTest, SurfaceCodeXBasisSingleErrorsAreCorrected) {
  // Z errors flip X-basis readout bits; decoding runs over the X-type
  // supports and the logical X mask.
  const CssCode code = rotated_surface_code(3);
  const auto uf = make_decoder("union-find", code, CssBasis::kX);
  for (std::uint64_t e : masks_of_weight(code.n, 1))
    EXPECT_EQ(decoded_logical(*uf, code.x_supports, code.logical_x.x, e), 0u)
        << "e=" << e;
}

// Satellite property test: union-find handles weight > 2 syndromes — any
// random Pauli error pattern — without crashing, always killing the
// syndrome it was given.
TEST(UnionFindPropertyTest, RandomHighWeightPatternsAlwaysKillTheSyndrome) {
  struct Case {
    CssCode code;
    CssBasis basis;
  };
  const std::vector<Case> cases = {
      {repetition_code(5), CssBasis::kZ},
      {repetition_code(7), CssBasis::kZ},
      {rotated_surface_code(3), CssBasis::kZ},
      {rotated_surface_code(3), CssBasis::kX},
      {rotated_surface_code(5), CssBasis::kZ},
  };
  std::mt19937_64 rng(0xDEC0DE5EEDULL);
  for (const Case& c : cases) {
    const auto& supports = c.code.check_supports(c.basis);
    const auto uf = make_decoder("union-find", c.code, c.basis);
    const std::uint64_t qubit_mask = (1ULL << c.code.n) - 1;
    for (int trial = 0; trial < 400; ++trial) {
      const std::uint64_t error = rng() & qubit_mask;  // any weight 0..n
      const std::uint64_t s = css_syndrome(supports, error);
      const std::uint64_t correction = uf->decode(s);
      EXPECT_EQ(css_syndrome(supports, correction), s)
          << c.code.name << " trial=" << trial << " error=" << error;
      EXPECT_EQ(correction & ~qubit_mask, 0u)
          << "correction outside the block: " << correction;
    }
  }
}

TEST(UnionFindPropertyTest, DecodeIsDeterministic) {
  const CssCode code = rotated_surface_code(5);
  const auto uf = make_decoder("union-find", code);
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const std::uint64_t e = rng() & ((1ULL << code.n) - 1);
    const std::uint64_t s = css_syndrome(code.z_supports, e);
    EXPECT_EQ(uf->decode(s), uf->decode(s));
  }
}

TEST(RepetitionCodeTest, StructureAndValidation) {
  const CssCode code = repetition_code(5);
  EXPECT_EQ(code.n, 5u);
  EXPECT_EQ(code.code_distance, 5u);
  EXPECT_TRUE(code.x_supports.empty());
  ASSERT_EQ(code.z_supports.size(), 4u);
  EXPECT_EQ(code.z_supports[0], 0b00011ULL);
  EXPECT_EQ(code.z_supports[3], 0b11000ULL);
  EXPECT_NO_THROW(code.validate());
  EXPECT_THROW((void)repetition_code(4), precondition_error);
  EXPECT_THROW((void)repetition_code(1), precondition_error);
}

TEST(MakeCodeTest, RegistryNames) {
  EXPECT_EQ(make_code("repetition", 5).name, "repetition_5");
  EXPECT_EQ(make_code("surface", 3).name, "rotated_surface_3");
  EXPECT_EQ(make_code("steane", 3).name, "steane");
  EXPECT_EQ(make_code("surface", 3).code_distance, 3u);
  EXPECT_EQ(make_code("steane", 3).code_distance, 3u);
  EXPECT_THROW((void)make_code("steane", 5), precondition_error);
  EXPECT_THROW((void)make_code("bogus", 3), precondition_error);
}

TEST(CssBasisTest, NamesRoundTrip) {
  EXPECT_EQ(to_string(CssBasis::kZ), "z");
  EXPECT_EQ(to_string(CssBasis::kX), "x");
  EXPECT_EQ(basis_from_string("z"), CssBasis::kZ);
  EXPECT_EQ(basis_from_string("X"), CssBasis::kX);
  EXPECT_THROW((void)basis_from_string("y"), precondition_error);
}

// ---------------------------------------------------------------------------
// Space-time decoder: every single circuit-level fault class must decode to
// logical 0. The record layout below mirrors what the extraction circuit
// produces for each fault; the mid-round ("diagonal") class is the one a
// naive space+time-only detector graph mis-decodes at O(p).
// ---------------------------------------------------------------------------

/// Fault-record factory for one memory experiment and its decoding basis.
struct FaultLab {
  MemoryExperiment exp;
  std::vector<std::uint64_t> supports;  ///< Basis check supports.
  unsigned offset;                      ///< Ancilla index of basis check 0.

  FaultLab(const CssCode& code, unsigned rounds, CssBasis basis)
      : exp(make_memory_experiment(code, rounds, basis,
                                   PrepStyle::kProduct)),
        supports(code.check_supports(basis)),
        offset(basis == CssBasis::kZ
                   ? static_cast<unsigned>(code.x_supports.size())
                   : 0) {}

  [[nodiscard]] std::uint64_t anc(unsigned round, unsigned c) const {
    return 1ULL << exp.ancilla_bit(round, offset + c);
  }

  /// Ancilla-readout flip of basis check `c` in round `r`.
  [[nodiscard]] std::uint64_t time_fault(unsigned r, unsigned c) const {
    return anc(r, c);
  }

  /// Data error on qubit `q` entering just before round `t`'s extraction
  /// (t == rounds: just before the final readout). Every adjacent check
  /// sees it from round t on; it persists into the final data bits.
  [[nodiscard]] std::uint64_t boundary_fault(unsigned t, unsigned q) const {
    std::uint64_t rec = 1ULL << exp.data_bit(q);
    for (unsigned r = t; r < exp.rounds; ++r)
      for (unsigned c = 0; c < supports.size(); ++c)
        if ((supports[c] >> q) & 1ULL) rec ^= anc(r, c);
    return rec;
  }

  /// Data error on shared qubit `q` landing *between* its two checks'
  /// extractions within round `r`: the later-extracted check sees it that
  /// round, the earlier one only from round r+1.
  [[nodiscard]] std::uint64_t diagonal_fault(unsigned r, unsigned q,
                                             unsigned c_earlier,
                                             unsigned c_later) const {
    std::uint64_t rec = 1ULL << exp.data_bit(q);
    for (unsigned rr = r; rr < exp.rounds; ++rr) rec ^= anc(rr, c_later);
    for (unsigned rr = r + 1; rr < exp.rounds; ++rr)
      rec ^= anc(rr, c_earlier);
    return rec;
  }

  /// Basis check indices containing `q`, in extraction (index) order.
  [[nodiscard]] std::vector<unsigned> checks_of(unsigned q) const {
    std::vector<unsigned> out;
    for (unsigned c = 0; c < supports.size(); ++c)
      if ((supports[c] >> q) & 1ULL) out.push_back(c);
    return out;
  }
};

std::vector<FaultLab> spacetime_labs() {
  std::vector<FaultLab> labs;
  labs.emplace_back(repetition_code(3), 2, CssBasis::kZ);
  labs.emplace_back(repetition_code(5), 3, CssBasis::kZ);
  labs.emplace_back(rotated_surface_code(3), 2, CssBasis::kZ);
  labs.emplace_back(rotated_surface_code(3), 2, CssBasis::kX);
  return labs;
}

TEST(SpaceTimeDecoderTest, EverySingleFaultDecodesToZero) {
  for (const FaultLab& lab : spacetime_labs()) {
    SCOPED_TRACE(lab.exp.code.name + " basis=" + to_string(lab.exp.basis));
    const SpaceTimeUnionFindDecoder dec(lab.exp);
    EXPECT_EQ(dec.decode_shot(0), 0u) << "noiseless";
    for (unsigned r = 0; r < lab.exp.rounds; ++r)
      for (unsigned c = 0; c < lab.supports.size(); ++c)
        EXPECT_EQ(dec.decode_shot(lab.time_fault(r, c)), 0u)
            << "time fault r=" << r << " c=" << c;
    for (unsigned t = 0; t <= lab.exp.rounds; ++t)
      for (unsigned q = 0; q < lab.exp.code.n; ++q)
        EXPECT_EQ(dec.decode_shot(lab.boundary_fault(t, q)), 0u)
            << "boundary fault t=" << t << " q=" << q;
    for (unsigned q = 0; q < lab.exp.code.n; ++q) {
      const std::vector<unsigned> cs = lab.checks_of(q);
      if (cs.size() != 2) continue;
      for (unsigned r = 0; r < lab.exp.rounds; ++r)
        EXPECT_EQ(dec.decode_shot(lab.diagonal_fault(r, q, cs[0], cs[1])),
                  0u)
            << "diagonal fault r=" << r << " q=" << q;
    }
  }
}

// An *uncorrected* single data error must flip the raw logical parity when
// it sits on the logical support — i.e. the zeros above are the decoder
// working, not the faults being invisible.
TEST(SpaceTimeDecoderTest, RawParityAloneWouldFail) {
  const FaultLab lab(repetition_code(3), 2, CssBasis::kZ);
  const std::uint64_t logical =
      lab.exp.code.logical_support(lab.exp.basis);
  ASSERT_NE(logical, 0u);
  const unsigned q = static_cast<unsigned>(std::countr_zero(logical));
  const std::uint64_t rec = lab.boundary_fault(0, q);
  EXPECT_EQ(parity64(lab.exp.data_bits(rec) & logical), 1u);
  const SpaceTimeUnionFindDecoder dec(lab.exp);
  EXPECT_EQ(dec.decode_shot(rec), 0u);
}

TEST(SpaceTimeDecoderTest, RandomFaultCombinationsNeverCrash) {
  // Stacked faults may exceed the code distance — failures are allowed,
  // crashes and nondeterminism are not.
  for (const FaultLab& lab : spacetime_labs()) {
    SCOPED_TRACE(lab.exp.code.name + " basis=" + to_string(lab.exp.basis));
    const SpaceTimeUnionFindDecoder dec(lab.exp);
    std::mt19937_64 rng(7);
    for (int trial = 0; trial < 200; ++trial) {
      std::uint64_t rec = 0;
      const int faults = 1 + static_cast<int>(rng() % 4);
      for (int f = 0; f < faults; ++f) {
        switch (rng() % 3) {
          case 0:
            rec ^= lab.time_fault(
                static_cast<unsigned>(rng() % lab.exp.rounds),
                static_cast<unsigned>(rng() % lab.supports.size()));
            break;
          case 1:
            rec ^= lab.boundary_fault(
                static_cast<unsigned>(rng() % (lab.exp.rounds + 1)),
                static_cast<unsigned>(rng() % lab.exp.code.n));
            break;
          default: {
            const unsigned q = static_cast<unsigned>(rng() % lab.exp.code.n);
            const std::vector<unsigned> cs = lab.checks_of(q);
            if (cs.size() == 2)
              rec ^= lab.diagonal_fault(
                  static_cast<unsigned>(rng() % lab.exp.rounds), q, cs[0],
                  cs[1]);
            break;
          }
        }
      }
      const unsigned first = dec.decode_shot(rec);
      EXPECT_EQ(dec.decode_shot(rec), first);
      EXPECT_LE(first, 1u);
    }
  }
}

TEST(SpaceTimeDecoderTest, FactoryNamesAndCapacity) {
  const FaultLab lab(repetition_code(3), 2, CssBasis::kZ);
  EXPECT_EQ(make_shot_decoder("st-union-find", lab.exp)->name(),
            "st-union-find");
  EXPECT_EQ(make_shot_decoder("lookup", lab.exp)->name(), "lookup");
  EXPECT_EQ(make_shot_decoder("union-find", lab.exp)->name(), "union-find");
  EXPECT_THROW((void)make_shot_decoder("bogus", lab.exp),
               precondition_error);
  // Capacity guard: d=5 at 5 rounds packs into 25 record bits but needs 65
  // error mechanisms (space + time + diagonal), one past the 64-bit budget.
  const MemoryExperiment big = make_memory_experiment(
      repetition_code(5), 5, CssBasis::kZ, PrepStyle::kProduct);
  EXPECT_THROW((void)SpaceTimeUnionFindDecoder(big), precondition_error);
}

}  // namespace
}  // namespace ptsbe::qec

// The `.ptq` text format: exact round-trip (parse(write(c)) == c) across
// every gate in the library and every standard channel, hand-written-text
// parsing (factory channel forms, comments, blank lines), and precise
// line:column diagnostics on malformed input.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "ptsbe/circuit/gates.hpp"
#include "ptsbe/common/rng.hpp"
#include "ptsbe/io/ptq.hpp"
#include "ptsbe/noise/channels.hpp"
#include "temp_file.hpp"

namespace ptsbe {
namespace {

// ---------------------------------------------------------------------------
// Round-trip: every gate mnemonic, every factory channel, measurements.
// ---------------------------------------------------------------------------

TEST(PtqRoundTrip, EveryLibraryGate) {
  Circuit c(3);
  c.x(0).y(1).z(2).h(0).s(1).sdg(2).t(0).tdg(1);
  c.sx(2).sxdg(0).sy(1).sydg(2);
  c.rx(0, 0.1).ry(1, -2.7).rz(2, 3.14159).p(0, 0.6180339887498949);
  c.gate("i", gates::I(), {1});
  c.gate("u3", gates::U3(0.3, -1.1, 2.2), {2}, {0.3, -1.1, 2.2});
  c.cx(0, 1).cy(1, 2).cz(0, 2).swap(1, 0);
  c.gate("iswap", gates::ISWAP(), {2, 1});
  c.measure_all();

  const NoisyCircuit noisy(c, {});
  const NoisyCircuit back = io::parse_circuit(io::write_circuit(noisy));
  EXPECT_TRUE(io::programs_equal(noisy, back));
  EXPECT_TRUE(io::circuits_equal(c, back.circuit()));
}

TEST(PtqRoundTrip, CustomUnitaryFallsBackToLongForm) {
  Circuit c(2);
  // A gate the mnemonic table cannot reconstruct: custom name + matrix.
  c.gate("mygate", gates::RX(0.77), {1}, {0.77});
  // A known name whose stored matrix does NOT match the builder (must be
  // emitted long-form, not silently replaced by the library matrix).
  c.gate("h", gates::RZ(0.5), {0});
  c.measure_all();
  const NoisyCircuit noisy(c, {});
  const std::string text = io::write_circuit(noisy);
  EXPECT_NE(text.find("unitary mygate"), std::string::npos);
  EXPECT_NE(text.find("unitary h"), std::string::npos);
  EXPECT_TRUE(io::programs_equal(noisy, io::parse_circuit(text)));
}

TEST(PtqRoundTrip, EveryStandardChannel) {
  const std::vector<ChannelPtr> zoo = {
      channels::depolarizing(0.03),
      channels::bit_flip(0.02),
      channels::phase_flip(0.01),
      channels::bit_phase_flip(0.015),
      channels::pauli_channel(0.01, 0.02, 0.03),
      channels::amplitude_damping(0.2),
      channels::phase_damping(0.25),
      channels::thermal_relaxation(1.0, 30.0, 40.0),
      channels::coherent_overrotation(0.05, 0.3),
  };
  const std::vector<ChannelPtr> zoo2 = {
      channels::depolarizing2(0.04),
      channels::correlated_xx_zz(0.02),
  };

  Circuit c(2);
  c.h(0).cx(0, 1);
  c.measure_all();
  std::vector<NoiseSite> sites;
  // State-prep sites (before the circuit), per channel on qubit 0.
  for (const ChannelPtr& ch : zoo)
    sites.push_back({0, NoiseSite::kBeforeCircuit, {0}, ch});
  // Gate sites after op 1 (the cx): 1q channels on each qubit, 2q on both.
  for (const ChannelPtr& ch : zoo) sites.push_back({0, 1, {1}, ch});
  for (const ChannelPtr& ch : zoo2) sites.push_back({0, 1, {0, 1}, ch});
  // Readout site after a measure op.
  sites.push_back({0, 2, {0}, channels::bit_flip(0.005)});

  const NoisyCircuit noisy(std::move(c), std::move(sites));
  const NoisyCircuit back = io::parse_circuit(io::write_circuit(noisy));
  EXPECT_TRUE(io::programs_equal(noisy, back));
  ASSERT_EQ(back.num_sites(), noisy.num_sites());
  EXPECT_EQ(back.sites().front().after_op, NoiseSite::kBeforeCircuit);
}

TEST(PtqRoundTrip, SharedChannelHandleIsDeclaredOnce) {
  Circuit c(2);
  c.h(0).cx(0, 1);
  const ChannelPtr shared = channels::depolarizing(0.01);
  std::vector<NoiseSite> sites = {{0, 0, {0}, shared}, {0, 1, {1}, shared}};
  const std::string text = io::write_circuit(NoisyCircuit(c, sites));
  std::size_t decls = 0, pos = 0;
  while ((pos = text.find("channel ", pos)) != std::string::npos) {
    ++decls;
    pos += 8;
  }
  EXPECT_EQ(decls, 1u);
}

// ---------------------------------------------------------------------------
// Property: random circuits + random noise sites round-trip exactly (the
// test_properties.cpp random-program recipe, widened to the full gate set).
// ---------------------------------------------------------------------------

class PtqRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

NoisyCircuit random_program(std::uint64_t seed) {
  RngStream rng(seed);
  const unsigned n = 2 + static_cast<unsigned>(rng.uniform_index(4));  // 2..5
  Circuit c(n);
  const std::vector<ChannelPtr> zoo1 = {
      channels::depolarizing(0.01 + 0.1 * rng.uniform()),
      channels::amplitude_damping(0.05 + 0.2 * rng.uniform()),
      channels::phase_damping(rng.uniform()),
      channels::coherent_overrotation(0.1, rng.uniform(-3.0, 3.0)),
  };
  const std::vector<ChannelPtr> zoo2 = {
      channels::depolarizing2(0.02),
      channels::correlated_xx_zz(0.03),
  };
  std::vector<NoiseSite> sites;
  // Optional state-prep noise.
  if (rng.uniform() < 0.5)
    sites.push_back(
        {0, NoiseSite::kBeforeCircuit, {0}, zoo1[rng.uniform_index(4)]});

  const char* one_q[] = {"x", "y",  "z",    "h",  "s",  "sdg", "t", "tdg",
                         "sx", "sxdg", "sy", "sydg"};
  const std::size_t ops = 8 + rng.uniform_index(20);
  for (std::size_t i = 0; i < ops; ++i) {
    const unsigned q = static_cast<unsigned>(rng.uniform_index(n));
    switch (rng.uniform_index(5)) {
      case 0: {
        const std::string g = one_q[rng.uniform_index(12)];
        c.gate(g, [&] {
          if (g == "x") return gates::X();
          if (g == "y") return gates::Y();
          if (g == "z") return gates::Z();
          if (g == "h") return gates::H();
          if (g == "s") return gates::S();
          if (g == "sdg") return gates::Sdg();
          if (g == "t") return gates::T();
          if (g == "tdg") return gates::Tdg();
          if (g == "sx") return gates::SX();
          if (g == "sxdg") return gates::SXdg();
          if (g == "sy") return gates::SY();
          return gates::SYdg();
        }(), {q});
        break;
      }
      case 1: {
        const double th = rng.uniform(-6.3, 6.3);
        switch (rng.uniform_index(4)) {
          case 0: c.rx(q, th); break;
          case 1: c.ry(q, th); break;
          case 2: c.rz(q, th); break;
          default: c.p(q, th); break;
        }
        break;
      }
      case 2: {
        const double a = rng.uniform(-3.2, 3.2), b = rng.uniform(-3.2, 3.2),
                     g = rng.uniform(-3.2, 3.2);
        c.gate("u3", gates::U3(a, b, g), {q}, {a, b, g});
        break;
      }
      case 3: {
        unsigned b = static_cast<unsigned>(rng.uniform_index(n));
        if (b == q) b = (b + 1) % n;
        switch (rng.uniform_index(5)) {
          case 0: c.cx(q, b); break;
          case 1: c.cy(q, b); break;
          case 2: c.cz(q, b); break;
          case 3: c.swap(q, b); break;
          default: c.gate("iswap", gates::ISWAP(), {q, b}); break;
        }
        break;
      }
      default: {
        // Attach a noise site after the most recent op (if any).
        if (c.size() == 0) break;
        if (rng.uniform() < 0.75 || n < 2) {
          sites.push_back({0, c.size() - 1, {q}, zoo1[rng.uniform_index(4)]});
        } else {
          unsigned b = static_cast<unsigned>(rng.uniform_index(n));
          if (b == q) b = (b + 1) % n;
          sites.push_back({0, c.size() - 1, {q, b}, zoo2[rng.uniform_index(2)]});
        }
        break;
      }
    }
  }
  c.measure_all();
  return NoisyCircuit(std::move(c), std::move(sites));
}

TEST_P(PtqRoundTripProperty, WriteParseIsIdentity) {
  const NoisyCircuit noisy = random_program(GetParam());
  const std::string text = io::write_circuit(noisy);
  const NoisyCircuit back = io::parse_circuit(text);
  EXPECT_TRUE(io::programs_equal(noisy, back));
  // Writing the parsed program reproduces the text verbatim (canonical
  // form is a fixed point).
  EXPECT_EQ(io::write_circuit(back), text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PtqRoundTripProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---------------------------------------------------------------------------
// Hand-written text: factory channel declarations, comments, diagnostics.
// ---------------------------------------------------------------------------

TEST(PtqParse, HandWrittenFactoryForm) {
  const std::string text = R"(# a Bell pair with gate + readout noise
ptq 1
qubits 2

channel g depolarizing 0.01
channel ro bit_flip 0.005   # readout flips

h 0
noise g 0
cx 0 1
noise g 0
noise g 1
measure 0
noise ro 0
measure 1
noise ro 1
)";
  const NoisyCircuit noisy = io::parse_circuit(text);
  EXPECT_EQ(noisy.num_qubits(), 2u);
  EXPECT_EQ(noisy.circuit().size(), 4u);  // h, cx, measure, measure
  ASSERT_EQ(noisy.num_sites(), 5u);
  EXPECT_EQ(noisy.sites()[0].after_op, 0u);
  EXPECT_EQ(noisy.sites()[0].channel->name(), "depolarizing");
  EXPECT_EQ(noisy.sites()[3].channel->name(), "bit_flip");
  EXPECT_EQ(noisy.sites()[3].after_op, 2u);  // after the first measure
  // Factory-built and parsed channels are structurally identical.
  EXPECT_TRUE(io::programs_equal(
      noisy, io::parse_circuit(io::write_circuit(noisy))));
}

TEST(PtqParse, EveryFactoryChannelKind) {
  const std::string text = R"(ptq 1
qubits 2
channel a depolarizing 0.01
channel b depolarizing2 0.02
channel c bit_flip 0.03
channel d phase_flip 0.04
channel e bit_phase_flip 0.05
channel f pauli 0.01 0.02 0.03
channel g amplitude_damping 0.1
channel h phase_damping 0.2
channel i correlated_xx_zz 0.03
channel j thermal_relaxation 1 30 40
channel k coherent_overrotation 0.05 0.4
h 0
noise a 0
noise b 0 1
noise c 0
noise d 0
noise e 0
noise f 0
noise g 0
noise h 0
noise i 0 1
noise j 0
noise k 0
measure 0
)";
  const NoisyCircuit noisy = io::parse_circuit(text);
  EXPECT_EQ(noisy.num_sites(), 11u);
  EXPECT_FALSE(noisy.all_unitary_mixture());  // damping channels present
}

TEST(PtqParse, FileHelperAndMissingFile) {
  const auto path = test::temp_file("ptq_io_test.ptq");
  {
    std::ofstream os(path);
    os << "ptq 1\nqubits 1\nh 0\nmeasure 0\n";
  }
  const NoisyCircuit noisy = io::parse_circuit_file(path);
  EXPECT_EQ(noisy.circuit().size(), 2u);
  EXPECT_THROW((void)io::parse_circuit_file("/nonexistent/nope.ptq"),
               runtime_failure);
}

struct DiagnosticCase {
  const char* label;
  const char* text;
  std::size_t line;
  std::size_t column;
  const char* message_fragment;
};

class PtqDiagnostics : public ::testing::TestWithParam<int> {
 public:
  static DiagnosticCase make(int i) {
    switch (i) {
      case 0:
        return {"bad gate name", "ptq 1\nqubits 2\nh 0\nhh 1\n", 4, 1,
                "unknown directive or gate 'hh'"};
      case 1:
        return {"gate arity mismatch", "ptq 1\nqubits 2\ncx 0\n", 3, 1,
                "expects 2 qubit(s)"};
      case 2:
        return {"dangling noise ref",
                "ptq 1\nqubits 2\nh 0\nnoise gg 0\n", 4, 7,
                "unknown channel 'gg'"};
      case 3:
        return {"channel arity mismatch",
                "ptq 1\nqubits 2\nchannel g depolarizing 0.01\nh 0\n"
                "noise g 0 1\n",
                5, 7, "has arity 1 but 2 qubit(s) listed"};
      case 4:
        return {"qubit out of range", "ptq 1\nqubits 2\nh 5\n", 3, 3,
                "qubit 5 out of range"};
      case 5:
        return {"missing header", "qubits 2\nh 0\n", 1, 1,
                "expected 'ptq <version>' header"};
      case 6:
        return {"unsupported version", "ptq 9\nqubits 2\n", 1, 5,
                "unsupported ptq format version 9"};
      case 7:
        return {"bad number", "ptq 1\nqubits 2\nrx 0 abc\n", 3, 6,
                "expected gate parameter, got 'abc'"};
      case 8:
        return {"trailing token", "ptq 1\nqubits 2\nmeasure 0 0\n", 3, 11,
                "unexpected trailing token '0'"};
      case 9:
        return {"unknown channel kind",
                "ptq 1\nqubits 2\nchannel g depol 0.1\n", 3, 11,
                "unknown channel kind 'depol'"};
      case 10:
        return {"invalid channel parameters",
                "ptq 1\nqubits 1\nchannel g depolarizing 1.5\n", 3, 11,
                "invalid channel parameters"};
      case 11:
        return {"duplicate channel id",
                "ptq 1\nqubits 1\nchannel g bit_flip 0.1\n"
                "channel g bit_flip 0.2\n",
                4, 9, "duplicate channel id 'g'"};
      case 12:
        return {"empty input", "   \n# only a comment\n", 1, 1,
                "empty .ptq input"};
      case 13:
        // The arity cap guards the serve boundary: a short line must not
        // be able to demand a 2^k × 2^k allocation.
        return {"unitary arity cap",
                "ptq 1\nqubits 2\nunitary g 16 0\n", 3, 11,
                "unitary qubit count 16 out of range"};
      case 14:
        // Entry-count mismatch fails before any matrix is allocated.
        return {"unitary entry count",
                "ptq 1\nqubits 2\nunitary g 1 0 0 1 0\n", 3, 1,
                "needs 8 matrix-entry tokens, got 2"};
      case 15:
        // Aliased noise targets would corrupt backend kernels.
        return {"duplicate noise qubit",
                "ptq 1\nqubits 2\nchannel g depolarizing2 0.02\nh 0\n"
                "noise g 0 0\n",
                5, 11, "duplicate qubit 0 in noise site"};
      // Numbers must describe a physical program: nan, inf and overflow
      // are refused at their token, a non-unitary matrix at its directive.
      case 16:
        return {"nan gate parameter", "ptq 1\nqubits 2\nrx 0 nan\n", 3, 6,
                "gate parameter 'nan' is not finite"};
      case 17:
        return {"overflowing unitary entry",
                "ptq 1\nqubits 1\nunitary u 1 0 0 1e999 0 0 0 0 0 1 0\n", 3,
                17, "matrix entry '1e999' is not finite"};
      case 18:
        return {"non-unitary unitary",
                "ptq 1\nqubits 1\nunitary u 1 0 0 2 0 0 0 0 0 2 0\n", 3, 1,
                "unitary 'u' is not unitary"};
      default:
        return {"nan Kraus entry",
                "ptq 1\nqubits 1\nchannel k kraus kk 1 2 nan 0 0 0 0 0 1 0\n",
                3, 24, "Kraus matrix entry 'nan' is not finite"};
    }
  }
};

TEST_P(PtqDiagnostics, ReportsLineAndColumn) {
  const DiagnosticCase cse = make(GetParam());
  try {
    (void)io::parse_circuit(cse.text, "in.ptq");
    FAIL() << cse.label << ": expected ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.line(), cse.line) << cse.label << ": " << e.what();
    EXPECT_EQ(e.column(), cse.column) << cse.label << ": " << e.what();
    EXPECT_NE(std::string(e.what()).find(cse.message_fragment),
              std::string::npos)
        << cse.label << ": " << e.what();
    // The source name decorates the message: "in.ptq:<line>:<column>: ...".
    const std::string prefix = "in.ptq:" + std::to_string(cse.line) + ":" +
                               std::to_string(cse.column) + ":";
    EXPECT_EQ(std::string(e.what()).rfind(prefix, 0), 0u)
        << cse.label << ": " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, PtqDiagnostics, ::testing::Range(0, 20));

TEST(PtqWrite, RejectsProgramsTheParserCannotReadBack) {
  // A 7-qubit custom gate is a valid in-memory Circuit but exceeds the
  // parser's `unitary` arity cap — the writer must refuse rather than
  // emit a file its own parser rejects.
  Circuit wide(7);
  wide.gate("big", Matrix::identity(128), {0, 1, 2, 3, 4, 5, 6});
  EXPECT_THROW((void)io::write_circuit(NoisyCircuit(wide, {})),
               precondition_error);

  // Same for a 3-qubit (dim-8) channel: KrausChannel allows it, .ptq's
  // channel grammar does not.
  Circuit c(3);
  c.h(0);
  const auto wide_channel = std::make_shared<const KrausChannel>(
      "identity8", std::vector<Matrix>{Matrix::identity(8)});
  std::vector<NoiseSite> sites = {{0, 0, {0, 1, 2}, wide_channel}};
  EXPECT_THROW((void)io::write_circuit(NoisyCircuit(c, sites)),
               precondition_error);
}

TEST(PtqWrite, RejectsOutOfProgramOrderSites) {
  Circuit c(2);
  c.h(0).cx(0, 1);
  const ChannelPtr g = channels::depolarizing(0.01);
  // Site 0 fires after op 1, site 1 after op 0: valid NoisyCircuit, but a
  // line-oriented listing cannot preserve the site indices.
  std::vector<NoiseSite> sites = {{0, 1, {0}, g}, {0, 0, {1}, g}};
  const NoisyCircuit noisy(c, sites);
  EXPECT_THROW((void)io::write_circuit(noisy), precondition_error);
}

}  // namespace
}  // namespace ptsbe

// Fuzz harness for the `.ptq` parser (`io::parse_circuit`), which reads
// tenant text at the serve and wire boundaries. An input must either throw
// `io::ParseError`, or parse to a program whose `write_circuit` text parses
// back to an equal program (`programs_equal`) and writes back to the same
// text, so parse∘write has the written text as a fixed point. Any other
// exception, or a broken round trip, aborts. Built two ways: with
// `replay_main.cpp` as a ctest that replays the committed corpus, and,
// under clang, with `-fsanitize=fuzzer` as a libFuzzer binary.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

#include "ptsbe/io/ptq.hpp"

namespace {

void require(bool property) {
  if (!property) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace ptsbe;
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  std::optional<NoisyCircuit> program;
  try {
    program.emplace(io::parse_circuit(text, "fuzz.ptq"));
  } catch (const io::ParseError&) {
    return 0;
  }
  const std::string written = io::write_circuit(*program);
  const NoisyCircuit back = io::parse_circuit(written, "written.ptq");
  require(io::programs_equal(*program, back));
  require(io::write_circuit(back) == written);
  return 0;
}

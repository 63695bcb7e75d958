#include "ptsbe/qec/decoder.hpp"

#include <functional>
#include <utility>
#include <vector>

#include "ptsbe/common/bits.hpp"
#include "ptsbe/common/error.hpp"

namespace ptsbe::qec {

namespace {

/// Enumerate error masks by increasing weight so the first entry per
/// syndrome is minimum weight (`emplace` keeps the first).
std::unordered_map<std::uint64_t, std::uint64_t> build_min_weight_table(
    const std::vector<std::uint64_t>& supports, unsigned num_qubits,
    unsigned max_error_weight) {
  PTSBE_REQUIRE(!supports.empty(), "decoder needs at least one check support");
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  table[0] = 0;
  std::vector<unsigned> positions;
  for (unsigned w = 1; w <= max_error_weight; ++w) {
    positions.clear();
    std::function<void(unsigned)> visit = [&](unsigned start) {
      if (positions.size() == w) {
        std::uint64_t mask = 0;
        for (unsigned q : positions) mask |= 1ULL << q;
        table.emplace(css_syndrome(supports, mask), mask);
        return;
      }
      for (unsigned q = start; q < num_qubits; ++q) {
        positions.push_back(q);
        visit(q + 1);
        positions.pop_back();
      }
    };
    visit(0);
  }
  return table;
}

const std::string kLookupName = "lookup";

}  // namespace

std::uint64_t css_syndrome(const std::vector<std::uint64_t>& supports,
                           std::uint64_t outcome) {
  std::uint64_t s = 0;
  for (std::size_t j = 0; j < supports.size(); ++j)
    s |= static_cast<std::uint64_t>(parity64(outcome & supports[j])) << j;
  return s;
}

LookupDecoder::LookupDecoder(std::vector<std::uint64_t> check_supports,
                             unsigned num_qubits, unsigned max_error_weight)
    : table_(build_min_weight_table(check_supports, num_qubits,
                                    max_error_weight)) {}

const std::string& LookupDecoder::name() const noexcept { return kLookupName; }

std::uint64_t LookupDecoder::decode(std::uint64_t syndrome_bits) const {
  const auto it = table_.find(syndrome_bits);
  return it == table_.end() ? 0 : it->second;
}

std::unique_ptr<Decoder> make_decoder(const std::string& kind,
                                      const CssCode& code, CssBasis basis) {
  const std::vector<std::uint64_t>& supports = code.check_supports(basis);
  PTSBE_REQUIRE(!supports.empty(),
                "code '" + code.name + "' has no " + to_string(basis) +
                    "-basis checks to decode");
  if (kind == "lookup") {
    const unsigned correctable =
        code.code_distance >= 3 ? (code.code_distance - 1) / 2 : 1;
    return std::make_unique<LookupDecoder>(supports, code.n, correctable);
  }
  if (kind == "union-find")
    return std::make_unique<UnionFindDecoder>(supports, code.n);
  throw precondition_error("unknown decoder '" + kind +
                           "'; known decoders: lookup union-find");
}

unsigned decode_readout(const CssCode& code, CssBasis basis,
                        const Decoder& decoder, std::uint64_t readout) {
  const std::uint64_t syndrome =
      css_syndrome(code.check_supports(basis), readout);
  return parity64((readout ^ decoder.decode(syndrome)) &
                  code.logical_support(basis));
}

}  // namespace ptsbe::qec

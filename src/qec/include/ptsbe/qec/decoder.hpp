#pragma once

/// \file decoder.hpp
/// \brief Syndrome decoders for transversal CSS readouts.
///
/// A transversal readout of a CSS block yields one bit per physical qubit.
/// Errors anticommuting with the readout basis flip bits; the parities of
/// the matching stabilizer supports form the syndrome, and a decoder maps
/// each syndrome to a correction mask. Two families live behind the small
/// `Decoder` interface:
///
///  - `LookupDecoder` — exact minimum-weight table, enumerated up to the
///    code's correctable weight. The gold standard for small blocks; table
///    size grows as C(n, w), so it is a small-distance tool.
///  - `UnionFindDecoder` — the Delfosse–Nickerson cluster-growth + peeling
///    decoder over the matching graph (checks as nodes, qubits as edges,
///    plus one boundary node). Almost-linear time, works at any distance,
///    and is the decoder the threshold sweeps run.
///
/// `make_decoder` is the registry-style factory the CLI/bench/serve specs
/// name decoders through. All decoders are immutable after construction and
/// safe to share across threads; `decode` is deterministic (fixed iteration
/// order everywhere), which the QEC determinism matrix pins.
///
/// Decoding has two entry points: `decode_readout` returns the corrected
/// logical value of one bare transversal readout, and a `ShotDecoder`
/// (ptsbe/qec/spacetime.hpp) decodes a whole memory-experiment record.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ptsbe/qec/codes.hpp"

namespace ptsbe::qec {

/// Syndrome of a readout against a support set: bit j is the parity of the
/// readout restricted to `supports[j]`.
[[nodiscard]] std::uint64_t css_syndrome(
    const std::vector<std::uint64_t>& supports, std::uint64_t outcome);

/// A syndrome → correction-mask decoder for one CSS block readout.
/// Implementations guarantee `css_syndrome(supports, decode(s)) == s` for
/// every syndrome `s` they accept (the correction kills the syndrome).
class Decoder {
 public:
  virtual ~Decoder() = default;

  /// Registry-style name ("lookup" / "union-find").
  [[nodiscard]] virtual const std::string& name() const noexcept = 0;

  /// Correction mask for `syndrome_bits` (bit j of the syndrome = parity of
  /// check j). Thread-safe and deterministic.
  [[nodiscard]] virtual std::uint64_t decode(
      std::uint64_t syndrome_bits) const = 0;
};

/// Exact minimum-weight lookup decoder over one support set. Enumerates
/// error masks by increasing weight ≤ `max_error_weight`; the first mask
/// seen per syndrome (the lightest) wins. Unknown syndromes decode to 0
/// (correct nothing).
class LookupDecoder final : public Decoder {
 public:
  LookupDecoder(std::vector<std::uint64_t> check_supports, unsigned num_qubits,
                unsigned max_error_weight);

  [[nodiscard]] const std::string& name() const noexcept override;
  [[nodiscard]] std::uint64_t decode(std::uint64_t syndrome_bits) const override;

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> table_;
};

/// Union-find decoder (Delfosse–Nickerson): grow clusters around syndrome
/// defects half an edge at a time, merge until every cluster has even defect
/// parity or touches the boundary, then peel the grown forest leaves-first
/// to emit a correction. Requires a matchable graph: every qubit appears in
/// at most two of the check supports (one → boundary edge; zero →
/// undetectable, skipped). Repetition and rotated-surface readout graphs
/// satisfy this; Steane's does not (use the lookup decoder there).
class UnionFindDecoder final : public Decoder {
 public:
  UnionFindDecoder(const std::vector<std::uint64_t>& check_supports,
                   unsigned num_qubits);

  [[nodiscard]] const std::string& name() const noexcept override;
  [[nodiscard]] std::uint64_t decode(std::uint64_t syndrome_bits) const override;

 private:
  struct Edge {
    unsigned a = 0;      ///< Check node (or boundary).
    unsigned b = 0;      ///< Check node (or boundary).
    unsigned qubit = 0;  ///< Data qubit this edge corrects.
  };
  unsigned num_checks_ = 0;
  unsigned boundary_ = 0;  ///< Node id of the single boundary node.
  bool has_boundary_edges_ = false;
  std::vector<Edge> edges_;
  /// node id → indices into edges_, ascending (fixed iteration order).
  std::vector<std::vector<unsigned>> incident_;
};

/// Factory: build a `kind` decoder ("lookup" | "union-find") for reading
/// `code` out in `basis`. The lookup table enumerates up to the code's
/// correctable weight ⌊(d−1)/2⌋ (at least 1).
/// \throws precondition_error on unknown kinds or when the basis has no
///         checks (e.g. X-basis readout of the repetition code).
[[nodiscard]] std::unique_ptr<Decoder> make_decoder(const std::string& kind,
                                                    const CssCode& code,
                                                    CssBasis basis =
                                                        CssBasis::kZ);

/// Corrected logical value of a bare transversal `basis` readout of one
/// `code` block: the parity, over `code.logical_support(basis)`, of the
/// readout with `decoder`'s correction applied. `decoder` must be built on
/// `code.check_supports(basis)`.
[[nodiscard]] unsigned decode_readout(const CssCode& code, CssBasis basis,
                                      const Decoder& decoder,
                                      std::uint64_t readout);

}  // namespace ptsbe::qec

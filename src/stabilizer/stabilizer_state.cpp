#include "ptsbe/stabilizer/stabilizer_state.hpp"

#include <algorithm>
#include <utility>

#include "ptsbe/circuit/gates.hpp"
#include "ptsbe/common/error.hpp"
#include "ptsbe/stabilizer/pauli_frame.hpp"

namespace ptsbe {

namespace {

struct NamedGate {
  const char* name;
  Matrix matrix;
};

/// The recorded gates: the named Cliffords a matrix must match exactly, then
/// the Paulis a Pauli tensor decomposes into.
const std::vector<NamedGate>& gate_table() {
  static const std::vector<NamedGate> table = {
      {"h", gates::H()},       {"s", gates::S()},       {"sdg", gates::Sdg()},
      {"sx", gates::SX()},     {"sxdg", gates::SXdg()}, {"sy", gates::SY()},
      {"sydg", gates::SYdg()}, {"cx", gates::CX()},     {"cz", gates::CZ()},
      {"swap", gates::SWAP()}, {"x", gates::X()},       {"y", gates::Y()},
      {"z", gates::Z()}};
  return table;
}

constexpr std::uint8_t kNamedCliffords = 10;
constexpr std::uint8_t kX = kNamedCliffords, kY = kX + 1, kZ = kX + 2;

}  // namespace

bool StabilizerState::recognise(const Matrix& matrix,
                                std::span<const unsigned> qubits,
                                std::vector<Op>& ops) {
  if (qubits.empty() || qubits.size() > 2 ||
      matrix.rows() != (std::size_t{1} << qubits.size()) ||
      matrix.cols() != matrix.rows())
    return false;
  const std::vector<NamedGate>& table = gate_table();
  for (std::uint8_t g = 0; g < kNamedCliffords; ++g) {
    if (std::ranges::equal(table[g].matrix.data(), matrix.data())) {
      ops.push_back({g, qubits[0], qubits.size() > 1 ? qubits[1] : 0u});
      return true;
    }
  }
  std::vector<std::pair<bool, bool>> toggles;
  if (!pauli_toggles(matrix, static_cast<unsigned>(qubits.size()), toggles))
    return false;
  for (std::size_t k = 0; k < toggles.size(); ++k) {
    const auto [x, z] = toggles[k];
    if (x || z) ops.push_back({x && z ? kY : x ? kX : kZ, qubits[k], 0u});
  }
  return true;
}

void StabilizerState::apply_gate(const Matrix& matrix,
                                 std::span<const unsigned> qubits) {
  PTSBE_REQUIRE(recognise(matrix, qubits, ops_),
                "stabilizer state applies named Clifford gates and Pauli "
                "tensors on 1 or 2 qubits only");
}

bool StabilizerState::can_record(const Matrix& matrix, std::size_t arity) {
  static constexpr unsigned kQubits[] = {0, 1};
  std::vector<Op> ops;
  return arity <= 2 && recognise(matrix, std::span(kQubits, arity), ops);
}

double StabilizerState::apply_kraus_branch(const Matrix& /*k*/,
                                           std::span<const unsigned> /*q*/) {
  throw precondition_error(
      "stabilizer state applies Pauli-mixture branches only");
}

std::vector<std::uint64_t> StabilizerState::sample_records(
    std::size_t count, RngStream& rng,
    std::span<const unsigned> measured) const {
  const std::vector<NamedGate>& table = gate_table();
  Circuit circuit(n_);
  for (const Op& op : ops_) {
    const NamedGate& g = table[op.gate];
    if (g.matrix.rows() == 4)
      circuit.gate(g.name, g.matrix, {op.a, op.b});
    else
      circuit.gate(g.name, g.matrix, {op.a});
  }
  for (unsigned q : measured) circuit.measure(q);
  // No noise sites remain: the frame sampler reduces to one reference run
  // and bulk frame propagation.
  const PauliFrameSampler sampler(NoiseModel().apply(circuit),
                                  RngStream(rng.bits64()));
  return sampler.sample(count, rng);
}

}  // namespace ptsbe

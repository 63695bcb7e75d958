#pragma once

/// \file kraus.hpp
/// \brief Kraus-operator representation of quantum noise channels.
///
/// A `KrausChannel` is a CPTP map given by operators {K_i} with
/// Σ K_i†K_i = I. On construction the channel is verified CPTP and analysed
/// for the *unitary-mixture* property the paper's §2.2 (feature 2) exploits:
/// if every K_i = √p_i·U_i with U_i unitary, branch probabilities are
/// state-independent (p_i), so PTS can sample branches exactly offline. For
/// general channels the realised probability ⟨ψ|K_i†K_i|ψ⟩ depends on the
/// state; PTS then samples by *nominal* probability (the probability under a
/// maximally mixed input, tr(K_i†K_i)/d) and Batched Execution records the
/// realised probability as importance metadata.

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ptsbe/linalg/matrix.hpp"

namespace ptsbe {

/// A completely-positive trace-preserving noise channel in Kraus form.
class KrausChannel {
 public:
  /// Construct and validate a channel.
  ///
  /// \param name       Mnemonic used in provenance metadata ("depolarizing"…).
  /// \param kraus_ops  Non-empty set of d×d Kraus matrices, equal dims,
  ///                   d = 2^arity; must satisfy CPTP within `tol`.
  /// \throws precondition_error on malformed input.
  KrausChannel(std::string name, std::vector<Matrix> kraus_ops,
               double tol = 1e-9);

  /// Channel mnemonic.
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Number of Kraus branches.
  [[nodiscard]] std::size_t num_branches() const noexcept {
    return kraus_.size();
  }

  /// Number of qubits the channel acts on (1 or 2 in this library).
  [[nodiscard]] unsigned arity() const noexcept { return arity_; }

  /// The i-th Kraus operator.
  [[nodiscard]] const Matrix& kraus(std::size_t i) const { return kraus_.at(i); }

  /// All Kraus operators.
  [[nodiscard]] const std::vector<Matrix>& kraus_ops() const noexcept {
    return kraus_;
  }

  /// True when every Kraus operator is a scaled unitary (unitary mixture).
  [[nodiscard]] bool is_unitary_mixture() const noexcept {
    return unitary_mixture_;
  }

  /// Branch probabilities. Exact (state-independent) for unitary mixtures;
  /// nominal (maximally-mixed-input) otherwise. Sums to 1.
  [[nodiscard]] const std::vector<double>& nominal_probabilities() const noexcept {
    return nominal_prob_;
  }

  /// For unitary mixtures: branch i's unitary U_i (K_i = √p_i·U_i).
  /// Precondition: is_unitary_mixture().
  [[nodiscard]] const Matrix& unitary(std::size_t i) const;

  /// Index of the identity-like branch (the "no error" branch: the branch
  /// whose unitary is proportional to I), or -1 if none. Used by PTS
  /// algorithms that enumerate error combinations: sites resting in their
  /// identity branch contribute no error.
  [[nodiscard]] int identity_branch() const noexcept { return identity_branch_; }

  /// The branch a site takes when PTS does not list it in a sparse
  /// trajectory specification: the identity branch when one exists,
  /// otherwise the highest-nominal-probability branch (e.g. amplitude
  /// damping's no-decay K₀, which is not proportional to I).
  [[nodiscard]] std::size_t default_branch() const noexcept {
    return default_branch_;
  }

 private:
  std::string name_;
  std::vector<Matrix> kraus_;
  unsigned arity_ = 1;
  bool unitary_mixture_ = false;
  std::vector<double> nominal_prob_;
  std::vector<Matrix> unitaries_;
  int identity_branch_ = -1;
  std::size_t default_branch_ = 0;
};

/// Shared immutable channel handle (channels are referenced by many sites).
using ChannelPtr = std::shared_ptr<const KrausChannel>;

/// One general-Kraus site's chosen branch, borrowed: operator `k` on
/// `qubits` (first listed = LSB of the matrix). A run of these is what a
/// state's `apply_kraus_branches` applies in one call.
struct KrausBranch {
  const Matrix* k = nullptr;
  std::span<const unsigned> qubits;
};

}  // namespace ptsbe

#pragma once

/// \file shot_table.hpp
/// \brief Ordered record→weight aggregation over shot datasets.
///
/// `ShotTable` is the BranchTab of this codebase (after
/// `alanrogers__lego`'s `BranchTab_plusEquals` / `BranchTab_KLdiverg`
/// toolkit): a histogram of measurement records that can be merged across
/// shards, diffed, normalised into a distribution, and compared with the
/// metrics in compare.hpp. It is built on `std::map`, so iteration order is
/// the record value order — deterministic by construction, which is what
/// makes `serialize()` byte-stable and keeps this TU legal under the
/// project lint rule banning unordered iteration in serialization TUs.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "ptsbe/core/batched_execution.hpp"
#include "ptsbe/core/dataset_reader.hpp"

namespace ptsbe::stats {

/// Histogram of measurement records. Weights are doubles so a table can
/// hold either raw shot counts (after `add`/`merge`) or probabilities
/// (after `normalise`); the comparison toolkit documents which form each
/// metric expects.
class ShotTable {
 public:
  /// Ordered (record, weight) map — iteration is ascending by record.
  using Map = std::map<std::uint64_t, double>;

  /// Add `weight` shots of `record`.
  void add(std::uint64_t record, double weight = 1.0) {
    weights_[record] += weight;
  }

  /// Add every measurement record of one trajectory batch (weight 1 each).
  /// A run of n equal adjacent records adds n in one step, which on a
  /// count table (integer weights below 2^53) is bit-identical to n
  /// separate `add(record)` calls.
  void add_batch(const be::TrajectoryBatch& batch);

  /// Pointwise `*this += other` (BranchTab_plusEquals). Returns *this.
  ShotTable& merge(const ShotTable& other);

  /// Pointwise `*this - other` over the union of records. Records whose
  /// difference is exactly 0 are dropped, so `a.diff(a)` is empty — the
  /// "no divergence" case reads as an empty table, not a table of zeros.
  [[nodiscard]] ShotTable diff(const ShotTable& other) const;

  /// Divide every weight by `total()`, turning counts into a probability
  /// distribution. Normalising bit-identical tables yields bit-identical
  /// distributions (same dividend, same divisor).
  /// \throws precondition_error when `total()` is not positive.
  void normalise();

  /// Sum of all weights.
  [[nodiscard]] double total() const noexcept;

  /// Number of distinct records.
  [[nodiscard]] std::size_t distinct() const noexcept {
    return weights_.size();
  }

  [[nodiscard]] bool empty() const noexcept { return weights_.empty(); }

  /// Weight of `record` (0 when absent).
  [[nodiscard]] double weight_of(std::uint64_t record) const noexcept;

  [[nodiscard]] bool contains(std::uint64_t record) const noexcept {
    return weights_.count(record) != 0;
  }

  /// The underlying ordered map (ascending record order).
  [[nodiscard]] const Map& entries() const noexcept { return weights_; }

  [[nodiscard]] bool operator==(const ShotTable& other) const noexcept {
    return weights_ == other.weights_;
  }
  [[nodiscard]] bool operator!=(const ShotTable& other) const noexcept {
    return !(*this == other);
  }

  /// Byte-stable binary serialisation ("PTST" magic, version, count, then
  /// (record u64, weight double) pairs in ascending record order). Two
  /// tables serialise identically iff they are bitwise equal — the
  /// byte-for-byte merge property tests hinge on this.
  [[nodiscard]] std::string serialize() const;

  /// Inverse of serialize().
  /// \throws invariant_error on bad magic/version/truncation.
  [[nodiscard]] static ShotTable deserialize(const std::string& bytes);

 private:
  Map weights_;
};

/// Aggregate a materialised result.
[[nodiscard]] ShotTable table_of_result(const be::Result& result);

/// Aggregate a dataset file out-of-core: one `Reader` pass, one batch in
/// memory at a time, so file size never bounds what can be tabulated.
/// \throws runtime_failure on unreadable/invalid files.
[[nodiscard]] ShotTable table_of_file(
    const std::string& path,
    dataset::ViewMode mode = dataset::ViewMode::kAuto);

/// JSON rendering: {"total":T,"distinct":D,"records":{"<r>":w,...}} with
/// records in ascending order. `max_records` > 0 truncates the records
/// object to the first (smallest) records and adds "truncated":true —
/// deterministic truncation, for the serve stats surface where tables can
/// be unbounded.
[[nodiscard]] std::string to_json(const ShotTable& table,
                                  std::size_t max_records = 0);

}  // namespace ptsbe::stats

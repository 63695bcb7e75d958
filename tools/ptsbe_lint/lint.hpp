#pragma once

/// \file lint.hpp
/// \brief `ptsbe-lint` — the project-invariant checker.
///
/// clang-tidy and `-Wthread-safety` enforce generic C++ and locking rules;
/// this tool enforces the contracts that are *specific to this codebase*
/// and invisible to a generic analyzer:
///
///  1. **Determinism of randomness** (`unseeded-rng`): records and dataset
///     bytes are pinned bit-identical across thread counts, schedules and
///     shards, which only holds because every random bit flows from the
///     seeded Philox streams in `ptsbe::common`. `rand()`,
///     `std::random_device` and default-constructed std engines are
///     nondeterministic entropy and are forbidden outside the trajectory
///     sampling layer.
///  2. **Determinism of serialization** (`unordered-iteration`): iteration
///     order of unordered containers is implementation-defined, so any
///     loop over one inside a serialization TU (dataset writer and reader,
///     `.ptq` writer, wire codec, stats JSON) could silently reorder bytes
///     between runs or standard-library versions. Lookup tables are fine;
///     iteration is not.
///  3. **Kernel bit-identity** (`fma-in-kernel-tu`, `kernel-cmake-flags`):
///     the SIMD kernel sets are byte-identical to the scalar reference
///     only because no TU contracts a multiply+add into one rounding
///     (PR 8). Kernel TUs must not call `std::fma`/FMA intrinsics and
///     their CMake stanza must keep `-ffp-contract=off`.
///  4. **Self-contained headers** (`header-self-contained`,
///     `header-missing-pragma-once`): a public module-boundary header must
///     compile on its own — it directly includes what it names instead of
///     leaning on another module's transitive includes.
///
/// The library half (this header) is what the fixture test suite drives;
/// `main.cpp` wraps it in a CLI with a machine-readable JSON report.

#include <cstddef>
#include <string>
#include <vector>

namespace ptsbe::lint {

/// One rule violation at a specific source line.
struct Finding {
  std::string check;    ///< Stable check id, e.g. "unseeded-rng".
  std::string file;     ///< Path relative to the scanned root ('/').
  std::size_t line = 0; ///< 1-based line of the offending token.
  std::string message;  ///< Human-readable explanation.
};

/// Which files each check applies to, as '/'-separated paths relative to
/// the scanned root. A file matches a list entry when the entry is a
/// prefix of (or equal to) its path. Defaults describe this repository;
/// the fixture tests override them to point at seeded-violation files.
struct LintConfig {
  /// Directories (relative to root) to walk.
  std::vector<std::string> scan_roots = {"src", "examples", "bench", "tests",
                                         "tools"};
  /// Any path containing one of these substrings is skipped entirely
  /// (the lint fixtures are themselves deliberate violations).
  std::vector<std::string> exclude_substrings = {"/fixtures/"};
  /// The trajectory sampling layer — the only code allowed to construct
  /// randomness primitives (and even there, seeded ones).
  std::vector<std::string> rng_allowlist = {
      "src/trajectory/",
      "src/common/include/ptsbe/common/rng.hpp",
      "src/common/include/ptsbe/common/philox.hpp",
  };
  /// TUs whose output bytes are part of the determinism contract.
  std::vector<std::string> serialization_tus = {
      "src/io/",
      "src/core/dataset.cpp",
      "src/core/dataset_reader.cpp",
      "src/net/protocol.cpp",
      "src/serve/engine.cpp",
      "src/qec/metrics.cpp",
      "src/stats/",
  };
  /// The bit-identity kernel layer.
  std::vector<std::string> kernel_tus = {"src/kernels/"};
  /// CMake stanza that must keep -ffp-contract=off on every kernel TU.
  std::string kernel_cmake = "src/kernels/CMakeLists.txt";
};

/// Replace comments and string/character literals with spaces, preserving
/// line structure, so token checks never fire on prose or literals.
[[nodiscard]] std::string strip_comments_and_strings(const std::string& text);

/// Run every applicable check on one in-memory file. `rel_path` selects
/// the checks (see LintConfig); `text` is the raw file content.
[[nodiscard]] std::vector<Finding> lint_source(const std::string& rel_path,
                                               const std::string& text,
                                               const LintConfig& config);

/// Check the kernel CMake stanza content (rule 3b).
[[nodiscard]] std::vector<Finding> lint_kernel_cmake(
    const std::string& rel_path, const std::string& text);

/// Walk `root` per `config` and return every finding, sorted by
/// (file, line, check) so reports are deterministic.
[[nodiscard]] std::vector<Finding> lint_tree(const std::string& root,
                                             const LintConfig& config);

/// Machine-readable report: one JSON object with a sorted findings array.
[[nodiscard]] std::string report_json(const std::vector<Finding>& findings);

}  // namespace ptsbe::lint

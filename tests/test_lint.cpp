// ptsbe-lint's own suite: every check is driven over a seeded-violation
// fixture (asserted caught, with the right check id) and over clean code
// (asserted quiet), and the real tree must come back with zero findings —
// which is exactly what the CI static-analysis job enforces.
//
// Fixture paths arrive via compile definitions so the suite runs from any
// build directory:
//   PTSBE_LINT_FIXTURE_DIR  tools/ptsbe_lint/fixtures
//   PTSBE_LINT_SOURCE_DIR   the repository root

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.hpp"

namespace {

using ptsbe::lint::Finding;
using ptsbe::lint::LintConfig;

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(PTSBE_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::size_t count_check(const std::vector<Finding>& findings,
                        const std::string& check) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.check == check; }));
}

std::string describe(const std::vector<Finding>& findings) {
  std::ostringstream os;
  for (const Finding& f : findings)
    os << f.file << ':' << f.line << ": [" << f.check << "] " << f.message
       << '\n';
  return os.str();
}

// ---------------------------------------------------------------------------
// Comment/string stripping (the foundation every token check relies on).
// ---------------------------------------------------------------------------

TEST(LintStrip, BlanksCommentsAndLiteralsPreservingLines) {
  const std::string text =
      "int a; // trailing comment\n"
      "/* block\n   spanning */ int b;\n"
      "const char* s = \"quoted text\";\n";
  const std::string stripped = ptsbe::lint::strip_comments_and_strings(text);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'),
            std::count(stripped.begin(), stripped.end(), '\n'));
  EXPECT_EQ(stripped.find("trailing"), std::string::npos);
  EXPECT_EQ(stripped.find("spanning"), std::string::npos);
  EXPECT_EQ(stripped.find("quoted"), std::string::npos);
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
}

TEST(LintStrip, HandlesRawStringsAndEscapes) {
  const std::string text =
      "auto re = R\"(std::tokens (in) raw string)\";\n"
      "const char* e = \"escaped \\\" quote\";\n"
      "int after = 1;\n";
  const std::string stripped = ptsbe::lint::strip_comments_and_strings(text);
  EXPECT_EQ(stripped.find("tokens"), std::string::npos);
  EXPECT_EQ(stripped.find("escaped"), std::string::npos);
  EXPECT_NE(stripped.find("int after = 1;"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Check 1: unseeded / nondeterministic randomness.
// ---------------------------------------------------------------------------

TEST(LintRng, FixtureViolationsCaught) {
  const std::vector<Finding> findings = ptsbe::lint::lint_source(
      "src/somewhere/entropy.cpp", read_fixture("unseeded_rng.cpp"),
      LintConfig{});
  EXPECT_EQ(count_check(findings, "unseeded-rng"), 4u) << describe(findings);
  EXPECT_EQ(findings.size(), 4u) << describe(findings);
}

TEST(LintRng, TrajectorySamplingLayerIsAllowlisted) {
  const std::vector<Finding> findings = ptsbe::lint::lint_source(
      "src/trajectory/sampler.cpp", read_fixture("unseeded_rng.cpp"),
      LintConfig{});
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LintRng, SeededEnginesAndLookalikeIdentifiersQuiet) {
  const std::vector<Finding> findings = ptsbe::lint::lint_source(
      "src/x.cpp",
      "#include <random>\n"
      "int f() { std::mt19937_64 rng(123); int strand_count = 1;\n"
      "  return static_cast<int>(rng()) + strand_count; }\n",
      LintConfig{});
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

// ---------------------------------------------------------------------------
// Check 2: unordered iteration in serialization TUs.
// ---------------------------------------------------------------------------

LintConfig fixture_serialization_config() {
  LintConfig config;
  config.serialization_tus = {"ser/"};
  return config;
}

TEST(LintUnordered, FixtureIterationCaught) {
  const std::vector<Finding> findings = ptsbe::lint::lint_source(
      "ser/unordered_sink.cpp", read_fixture("unordered_sink.cpp"),
      fixture_serialization_config());
  EXPECT_EQ(count_check(findings, "unordered-iteration"), 2u)
      << describe(findings);
}

TEST(LintUnordered, SameCodeOutsideSerializationLayerQuiet) {
  const std::vector<Finding> findings = ptsbe::lint::lint_source(
      "src/other/unordered_sink.cpp", read_fixture("unordered_sink.cpp"),
      fixture_serialization_config());
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LintUnordered, OrderedIterationInSerializationLayerQuiet) {
  const std::vector<Finding> findings = ptsbe::lint::lint_source(
      "ser/clean.cpp", read_fixture("clean.cpp"),
      fixture_serialization_config());
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LintUnordered, DefaultConfigCoversTheStatsModule) {
  // The analytics layer's byte-stable ShotTable serialisation makes every
  // src/stats TU part of the determinism contract, and so is the dataset
  // reader that moved from src/stats into core: the default config must
  // fire on unordered iteration in both.
  for (const char* path :
       {"src/stats/shot_table.cpp", "src/core/dataset_reader.cpp"}) {
    const std::vector<Finding> findings = ptsbe::lint::lint_source(
        path, read_fixture("unordered_sink.cpp"), LintConfig{});
    EXPECT_EQ(count_check(findings, "unordered-iteration"), 2u)
        << path << '\n' << describe(findings);
  }
}

// ---------------------------------------------------------------------------
// Check 3: FMA in kernel TUs + the CMake contraction guard.
// ---------------------------------------------------------------------------

LintConfig fixture_kernel_config() {
  LintConfig config;
  config.kernel_tus = {"kern/"};
  return config;
}

TEST(LintFma, FixtureFmaCaught) {
  const std::vector<Finding> findings = ptsbe::lint::lint_source(
      "kern/fma_kernel.cpp", read_fixture("fma_kernel.cpp"),
      fixture_kernel_config());
  EXPECT_EQ(count_check(findings, "fma-in-kernel-tu"), 2u)
      << describe(findings);
}

TEST(LintFma, MulAddInKernelTuQuiet) {
  const std::vector<Finding> findings = ptsbe::lint::lint_source(
      "kern/clean.cpp", read_fixture("clean.cpp"), fixture_kernel_config());
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LintFma, KernelCmakeWithoutContractFlagCaught) {
  const std::vector<Finding> findings = ptsbe::lint::lint_kernel_cmake(
      "kern/CMakeLists.txt", read_fixture("kernel_cmake_bad.txt"));
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].check, "kernel-cmake-flags");
}

TEST(LintFma, RealKernelCmakeKeepsContractFlag) {
  std::ifstream in(std::string(PTSBE_LINT_SOURCE_DIR) +
                   "/src/kernels/CMakeLists.txt");
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(ptsbe::lint::lint_kernel_cmake("src/kernels/CMakeLists.txt",
                                             buffer.str())
                  .empty());
}

// ---------------------------------------------------------------------------
// Check 4: self-contained public headers.
// ---------------------------------------------------------------------------

TEST(LintHeader, BadHeaderCaught) {
  const std::vector<Finding> findings = ptsbe::lint::lint_source(
      "src/fixture/include/fixture/bad_header.hpp",
      read_fixture("include/fixture/bad_header.hpp"), LintConfig{});
  EXPECT_EQ(count_check(findings, "header-missing-pragma-once"), 1u)
      << describe(findings);
  // std::vector, std::string and std::mutex each lack a direct include.
  EXPECT_EQ(count_check(findings, "header-self-contained"), 3u)
      << describe(findings);
}

TEST(LintHeader, GoodHeaderQuiet) {
  const std::vector<Finding> findings = ptsbe::lint::lint_source(
      "src/fixture/include/fixture/good_header.hpp",
      read_fixture("include/fixture/good_header.hpp"), LintConfig{});
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LintHeader, NonHeaderFilesSkipHeaderChecks) {
  const std::vector<Finding> findings = ptsbe::lint::lint_source(
      "src/fixture/bad_not_header.cpp",
      read_fixture("include/fixture/bad_header.hpp"), LintConfig{});
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

// ---------------------------------------------------------------------------
// The real tree is clean, and the report is machine-readable + stable.
// ---------------------------------------------------------------------------

TEST(LintTree, RepositoryIsClean) {
  const std::vector<Finding> findings =
      ptsbe::lint::lint_tree(PTSBE_LINT_SOURCE_DIR, LintConfig{});
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LintTree, ReportIsDeterministic) {
  const LintConfig config;
  const std::string a = ptsbe::lint::report_json(
      ptsbe::lint::lint_tree(PTSBE_LINT_SOURCE_DIR, config));
  const std::string b = ptsbe::lint::report_json(
      ptsbe::lint::lint_tree(PTSBE_LINT_SOURCE_DIR, config));
  EXPECT_EQ(a, b);
}

TEST(LintReport, JsonShape) {
  const std::vector<Finding> findings = {
      {"unseeded-rng", "src/a.cpp", 7, "message with \"quotes\""},
  };
  const std::string json = ptsbe::lint::report_json(findings);
  EXPECT_NE(json.find("\"tool\": \"ptsbe-lint\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"check\": \"unseeded-rng\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"line\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos) << json;

  EXPECT_NE(ptsbe::lint::report_json({}).find("\"count\": 0"),
            std::string::npos);
}

}  // namespace

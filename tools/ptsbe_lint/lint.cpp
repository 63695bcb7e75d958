#include "lint.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <tuple>

namespace ptsbe::lint {

namespace {

namespace fs = std::filesystem;

bool has_prefix(const std::string& path, const std::string& prefix) {
  return path.size() >= prefix.size() &&
         path.compare(0, prefix.size(), prefix) == 0;
}

bool matches_any(const std::string& path,
                 const std::vector<std::string>& prefixes) {
  for (const std::string& prefix : prefixes)
    if (has_prefix(path, prefix)) return true;
  return false;
}

bool is_cpp_source(const std::string& path) {
  for (const char* ext : {".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h"})
    if (path.size() > std::strlen(ext) &&
        path.compare(path.size() - std::strlen(ext), std::string::npos, ext) ==
            0)
      return true;
  return false;
}

/// Public module-boundary header: lives under an include/ directory.
bool is_public_header(const std::string& path) {
  return path.find("/include/") != std::string::npos &&
         path.size() > 4 && path.compare(path.size() - 4, 4, ".hpp") == 0;
}

std::size_t line_of(const std::string& text, std::size_t offset) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(),
                            text.begin() + static_cast<std::ptrdiff_t>(offset),
                            '\n'));
}

/// Apply `re` to the stripped text, emitting one finding per match.
void find_all(const std::string& stripped, const std::regex& re,
              const std::string& check, const std::string& rel_path,
              const std::string& message, std::vector<Finding>& out) {
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(), re);
       it != std::sregex_iterator(); ++it) {
    out.push_back(Finding{check, rel_path,
                          line_of(stripped, static_cast<std::size_t>(
                                                it->position())),
                          message});
  }
}

// -- Check 1: nondeterministic randomness -----------------------------------

void check_unseeded_rng(const std::string& rel_path,
                        const std::string& stripped,
                        std::vector<Finding>& out) {
  static const std::regex kRandomDevice(R"(std\s*::\s*random_device)");
  static const std::regex kCRand(R"((^|\W)s?rand\s*\()");
  static const std::regex kDefaultEngine(
      R"(std\s*::\s*(mt19937(_64)?|default_random_engine|minstd_rand0?|ranlux(24|48)(_base)?)\s+\w+\s*(;|\{\s*\}))");
  find_all(stripped, kRandomDevice, "unseeded-rng", rel_path,
           "std::random_device is nondeterministic entropy; derive bits from "
           "the seeded Philox streams (ptsbe/common/rng.hpp) instead",
           out);
  find_all(stripped, kCRand, "unseeded-rng", rel_path,
           "rand()/srand() is global-state C randomness; derive bits from "
           "the seeded Philox streams (ptsbe/common/rng.hpp) instead",
           out);
  find_all(stripped, kDefaultEngine, "unseeded-rng", rel_path,
           "default-constructed standard RNG engine (unseeded); every engine "
           "must be constructed from an explicit seed",
           out);
}

// -- Check 2: unordered iteration feeding serialized bytes ------------------

void check_unordered_iteration(const std::string& rel_path,
                               const std::string& stripped,
                               std::vector<Finding>& out) {
  // Names declared (as member, local, parameter or function returning a
  // reference) with an unordered container type in this TU.
  static const std::regex kDecl(
      R"(std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*>[&\s]*(\w+))");
  std::vector<std::string> names;
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(), kDecl);
       it != std::sregex_iterator(); ++it)
    names.push_back((*it)[1].str());

  // Range-fors whose range expression names an unordered container (or
  // anything spelled unordered_*).
  static const std::regex kRangeFor(R"(for\s*\(([^;)]*):([^)]*)\))");
  for (auto it =
           std::sregex_iterator(stripped.begin(), stripped.end(), kRangeFor);
       it != std::sregex_iterator(); ++it) {
    const std::string range = (*it)[2].str();
    bool hit = range.find("unordered") != std::string::npos;
    for (const std::string& name : names) {
      if (hit) break;
      const std::regex word("\\b" + name + "\\b");
      hit = std::regex_search(range, word);
    }
    if (hit)
      out.push_back(Finding{
          "unordered-iteration", rel_path,
          line_of(stripped, static_cast<std::size_t>(it->position())),
          "iteration over an unordered container in a serialization TU: "
          "iteration order is implementation-defined and would leak into "
          "serialized bytes; iterate a sorted view (std::map / sorted "
          "vector) instead"});
  }
}

// -- Check 3: FMA in kernel TUs ---------------------------------------------

void check_fma_in_kernel(const std::string& rel_path,
                         const std::string& stripped,
                         std::vector<Finding>& out) {
  static const std::regex kFma(
      R"((std\s*::\s*fmaf?|(^|[^\w])fmaf?\s*\(|__builtin_fmaf?|_mm\w*_f[n]?m(add|sub)\w*\s*\())");
  find_all(stripped, kFma, "fma-in-kernel-tu", rel_path,
           "fused multiply-add in a kernel TU breaks the cross-ISA "
           "bit-identity contract (one rounding instead of two); use "
           "separate mul+add, and keep -ffp-contract=off",
           out);
}

// -- Check 4: self-contained public headers ---------------------------------

struct SymbolRule {
  const char* pattern;  ///< Regex over stripped header text.
  const char* include;  ///< Required direct #include <...> (or "...").
};

/// Conservative symbol → header map: only symbols whose home header is
/// unambiguous, so a match is always actionable.
const SymbolRule kSymbolRules[] = {
    {R"(std\s*::\s*string\b(?!_view))", "string"},
    {R"(std\s*::\s*string_view\b)", "string_view"},
    {R"(std\s*::\s*vector\b)", "vector"},
    {R"(std\s*::\s*array\b)", "array"},
    {R"(std\s*::\s*map\b)", "map"},
    {R"(std\s*::\s*unordered_map\b)", "unordered_map"},
    {R"(std\s*::\s*unordered_set\b)", "unordered_set"},
    {R"(std\s*::\s*deque\b)", "deque"},
    {R"(std\s*::\s*list\b)", "list"},
    {R"(std\s*::\s*span\b)", "span"},
    {R"(std\s*::\s*optional\b)", "optional"},
    {R"(std\s*::\s*complex\b)", "complex"},
    {R"(std\s*::\s*(mutex|lock_guard|unique_lock|scoped_lock)\b)", "mutex"},
    {R"(std\s*::\s*condition_variable\b)", "condition_variable"},
    {R"(std\s*::\s*thread\b)", "thread"},
    {R"(std\s*::\s*atomic\b)", "atomic"},
    {R"(std\s*::\s*function\b)", "functional"},
    {R"(std\s*::\s*(shared_ptr|unique_ptr|weak_ptr|make_shared|make_unique|enable_shared_from_this)\b)",
     "memory"},
    {R"(std\s*::\s*(exception_ptr|current_exception|rethrow_exception)\b)",
     "exception"},
    {R"(std\s*::\s*(size_t|ptrdiff_t|byte)\b)", "cstddef"},
    {R"(std\s*::\s*u?int(8|16|32|64)_t\b)", "cstdint"},
};

/// Project macros/types a header may only use after including their home
/// header directly (module-boundary IWYU for our own layers).
const SymbolRule kProjectRules[] = {
    {R"(\b(PTSBE_GUARDED_BY|PTSBE_REQUIRES|PTSBE_EXCLUDES|PTSBE_CAPABILITY|PTSBE_ACQUIRE|PTSBE_RELEASE|ptsbe\s*::\s*Mutex\b|\bMutexLock\b))",
     "ptsbe/common/thread_annotations.hpp"},
    {R"(\bPTSBE_(REQUIRE|ASSERT)\b)", "ptsbe/common/error.hpp"},
};

bool includes_directly(const std::string& stripped, const std::string& header) {
  const std::regex inc("#\\s*include\\s*[<\"]" +
                       std::regex_replace(header, std::regex("[./]"), "\\$&") +
                       "[>\"]");
  return std::regex_search(stripped, inc);
}

void check_header_self_contained(const std::string& rel_path,
                                 const std::string& raw,
                                 const std::string& stripped,
                                 std::vector<Finding>& out) {
  // `raw` (not stripped) for pragma once: it must exist at all.
  if (raw.find("#pragma once") == std::string::npos)
    out.push_back(Finding{"header-missing-pragma-once", rel_path, 1,
                          "public header lacks #pragma once"});

  const auto apply = [&](const SymbolRule& rule, const char* what) {
    const std::regex sym(rule.pattern);
    std::smatch m;
    if (!std::regex_search(stripped, m, sym)) return;
    // The home header itself trivially "uses" its own symbols.
    if (rel_path.find(rule.include) != std::string::npos) return;
    // Match includes against the raw text: the stripper blanks the path
    // inside `#include "..."` (it is a string literal).
    if (includes_directly(raw, rule.include)) return;
    out.push_back(Finding{
        "header-self-contained", rel_path,
        line_of(stripped, static_cast<std::size_t>(m.position())),
        std::string("header uses ") + what + " '" + m.str() +
            "' without directly including <" + rule.include +
            ">; module-boundary headers must compile standalone"});
  };
  for (const SymbolRule& rule : kSymbolRules) apply(rule, "std symbol");
  for (const SymbolRule& rule : kProjectRules) apply(rule, "project symbol");
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

std::string strip_comments_and_strings(const std::string& text) {
  std::string out = text;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          // Raw strings: skip to the closing delimiter wholesale.
          if (i > 0 && out[i - 1] == 'R') {
            const std::size_t open = out.find('(', i);
            if (open != std::string::npos) {
              const std::string delim =
                  ")" + out.substr(i + 1, open - i - 1) + "\"";
              const std::size_t close = out.find(delim, open);
              const std::size_t end = close == std::string::npos
                                          ? out.size()
                                          : close + delim.size();
              for (std::size_t j = i; j < end; ++j)
                if (out[j] != '\n') out[j] = ' ';
              i = end - 1;
              break;
            }
          }
          state = State::kString;
          out[i] = ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\n')
          state = State::kCode;
        else
          out[i] = ' ';
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n' && i + 1 < out.size()) {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == quote) {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

std::vector<Finding> lint_source(const std::string& rel_path,
                                 const std::string& text,
                                 const LintConfig& config) {
  std::vector<Finding> out;
  if (!is_cpp_source(rel_path)) return out;
  const std::string stripped = strip_comments_and_strings(text);

  if (!matches_any(rel_path, config.rng_allowlist))
    check_unseeded_rng(rel_path, stripped, out);
  if (matches_any(rel_path, config.serialization_tus))
    check_unordered_iteration(rel_path, stripped, out);
  if (matches_any(rel_path, config.kernel_tus))
    check_fma_in_kernel(rel_path, stripped, out);
  if (is_public_header(rel_path))
    check_header_self_contained(rel_path, text, stripped, out);
  return out;
}

std::vector<Finding> lint_kernel_cmake(const std::string& rel_path,
                                       const std::string& text) {
  std::vector<Finding> out;
  if (text.find("-ffp-contract=off") == std::string::npos)
    out.push_back(Finding{
        "kernel-cmake-flags", rel_path, 1,
        "kernel CMake stanza lost -ffp-contract=off; without it the "
        "compiler may contract mul+add into FMA and break cross-ISA "
        "bit-identity"});
  return out;
}

std::vector<Finding> lint_tree(const std::string& root,
                               const LintConfig& config) {
  std::vector<Finding> out;
  const fs::path base(root);
  for (const std::string& scan_root : config.scan_roots) {
    const fs::path dir = base / scan_root;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      std::string rel = fs::relative(entry.path(), base).generic_string();
      bool excluded = false;
      for (const std::string& sub : config.exclude_substrings)
        if (("/" + rel).find(sub) != std::string::npos) excluded = true;
      if (excluded) continue;
      const std::vector<Finding> found =
          lint_source(rel, read_file(entry.path()), config);
      out.insert(out.end(), found.begin(), found.end());
    }
  }
  const fs::path kernel_cmake = base / config.kernel_cmake;
  if (fs::exists(kernel_cmake)) {
    const std::vector<Finding> found =
        lint_kernel_cmake(config.kernel_cmake, read_file(kernel_cmake));
    out.insert(out.end(), found.begin(), found.end());
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.check) <
           std::tie(b.file, b.line, b.check);
  });
  return out;
}

namespace {

void append_json_string(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          os << "\\u00" << std::hex << static_cast<int>(c) << std::dec;
        else
          os << c;
    }
  }
  os << '"';
}

}  // namespace

std::string report_json(const std::vector<Finding>& findings) {
  std::ostringstream os;
  os << "{\"tool\": \"ptsbe-lint\", \"version\": 1, \"count\": "
     << findings.size() << ", \"findings\": [";
  bool first = true;
  for (const Finding& f : findings) {
    if (!first) os << ", ";
    first = false;
    os << "{\"check\": ";
    append_json_string(os, f.check);
    os << ", \"file\": ";
    append_json_string(os, f.file);
    os << ", \"line\": " << f.line << ", \"message\": ";
    append_json_string(os, f.message);
    os << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace ptsbe::lint

#pragma once

/// \file report.hpp
/// \brief The command line and the JSON output every bench driver shares.
///
/// Every driver takes `[out.json] [--tiny]` and writes one JSON document,
/// only to a path given on its command line: "bench", the host block, then
/// the driver's own fields, one per line. A nested object, or a row of an
/// array, prints on one line.

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ptsbe/kernels/kernel_set.hpp"

namespace ptsbe::bench {

struct Args {
  std::string out;  ///< JSON path; empty writes no JSON
  bool tiny = false;
};

/// `[out.json] [--tiny]`. Any other flag, or a second path, prints usage
/// and exits 2, so a typo never runs at full size under a path of its own.
inline Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      args.tiny = true;
    } else if (arg.starts_with("-") || !args.out.empty()) {
      std::fprintf(stderr,
                   "%s: unexpected argument '%s'\n"
                   "usage: %s [out.json] [--tiny]\n",
                   argv[0], arg.c_str(), argv[0]);
      std::exit(2);
    } else {
      args.out = arg;
    }
  }
  return args;
}

/// A scratch file in the system temp directory with this process's id in
/// its name, so two runs on one machine never share (or truncate) a file.
inline std::string temp_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("ptsbe_bench_" + std::to_string(::getpid()) + "_" + tag))
      .string();
}

/// A JSON object whose fields keep the order they were added in.
class Object {
 public:
  Object& add(const std::string& key, const std::string& value) {
    return put(key, quote(value));
  }
  Object& add(const std::string& key, const char* value) {
    return add(key, std::string(value));
  }
  Object& add(const std::string& key, bool value) {
    return put(key, value ? "true" : "false");
  }
  template <std::integral T>
  Object& add(const std::string& key, T value) {
    return put(key, std::to_string(value));
  }
  /// Seven significant digits; a value JSON cannot hold is null.
  Object& add(const std::string& key, double value) {
    if (!std::isfinite(value)) return put(key, "null");
    char text[32];
    std::snprintf(text, sizeof text, "%.7g", value);
    return put(key, text);
  }
  Object& add(const std::string& key, const Object& value) {
    return put(key, value.line());
  }
  Object& add(const std::string& key, const std::vector<Object>& rows) {
    std::vector<std::string> lines;
    for (const Object& row : rows) lines.push_back(row.line());
    fields_.push_back({key, "", std::move(lines)});
    return *this;
  }

  /// The object on one line: `{"key": value, ...}`.
  [[nodiscard]] std::string line() const { return text(false); }

  /// Writes the object to `path` as a document, one field per line and one
  /// array row per line; an empty path writes nothing. Returns false,
  /// having said why on stderr, when opening, writing or closing the file
  /// fails.
  [[nodiscard]] bool write(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* os = std::fopen(path.c_str(), "w");
    if (os == nullptr) {
      std::fprintf(stderr, "cannot open %s: %s\n", path.c_str(),
                   std::strerror(errno));
      return false;
    }
    const std::string doc = text(true);
    const bool written =
        std::fwrite(doc.data(), 1, doc.size(), os) == doc.size();
    if (std::fclose(os) != 0 || !written) {
      std::fprintf(stderr, "error while writing %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Field {
    std::string key;
    std::string value;  ///< JSON text of a scalar or an object
    std::optional<std::vector<std::string>> rows;  ///< set for an array
  };

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char escape[8];
        std::snprintf(escape, sizeof escape, "\\u%04x",
                      static_cast<unsigned>(c));
        out += escape;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  /// One line, or a document: one field per line, one array row per line.
  std::string text(bool document) const {
    const char* field_sep = document ? ",\n  " : ", ";
    std::string out = document ? "{\n  " : "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      const Field& f = fields_[i];
      out += (i > 0 ? field_sep : "") + quote(f.key) + ": ";
      if (!f.rows) {
        out += f.value;
        continue;
      }
      const bool row_lines = document && !f.rows->empty();
      const char* row_sep = row_lines ? ",\n    " : ", ";
      out += row_lines ? "[\n    " : "[";
      for (std::size_t r = 0; r < f.rows->size(); ++r)
        out += (r > 0 ? row_sep : "") + (*f.rows)[r];
      out += row_lines ? "\n  ]" : "]";
    }
    return out + (document ? "\n}\n" : "}");
  }

  Object& put(const std::string& key, std::string value) {
    fields_.push_back({key, std::move(value), std::nullopt});
    return *this;
  }

  std::vector<Field> fields_;
};

/// A driver's document so far: its name, then the host it runs on
/// (`PTSBE_BUILD_TYPE` is a compile definition on the bench targets).
inline Object report(const std::string& bench, std::size_t executor_threads) {
  Object host;
  host.add("nproc", std::thread::hardware_concurrency())
      .add("kernel_dispatch", kernels::describe_dispatch())
#if defined(__clang__)
      .add("compiler", "clang " __clang_version__)
#else
      .add("compiler", "gcc " __VERSION__)
#endif
      .add("build_type", PTSBE_BUILD_TYPE)
      .add("executor_threads", executor_threads);
  Object doc;
  doc.add("bench", bench).add("host", host);
  return doc;
}

}  // namespace ptsbe::bench

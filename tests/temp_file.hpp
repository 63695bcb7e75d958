#pragma once

/// \file temp_file.hpp
/// \brief Scratch files for the test suites, removed when their holder goes.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <utility>

namespace ptsbe::test {

/// A scratch file path; the file, if the test made one, is removed when
/// the holder goes out of scope, so a run leaves nothing behind even when
/// an assertion ends the test early. Converts to the path wherever a
/// `const std::string&` is taken.
class TempFile {
 public:
  explicit TempFile(std::string path) : path_(std::move(path)) {}
  TempFile(TempFile&& other) noexcept : path_(std::exchange(other.path_, {})) {}
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  TempFile& operator=(TempFile&&) = delete;
  ~TempFile() {
    if (!path_.empty()) std::remove(path_.c_str());
  }

  // NOLINTNEXTLINE(google-explicit-constructor): stands in for the path.
  operator const std::string&() const noexcept { return path_; }

 private:
  std::string path_;
};

/// `name` inside `::testing::TempDir()`, prefixed with this process's id,
/// so two test runs on one machine (a sanitizer tree beside a Release
/// tree, say) never write each other's files.
inline TempFile temp_file(const std::string& name) {
  return TempFile(::testing::TempDir() + "ptsbe_" +
                  std::to_string(::getpid()) + "_" + name);
}

}  // namespace ptsbe::test

#pragma once

/// \file temp_file.hpp
/// \brief Scratch file names for the test suites.

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace ptsbe::test {

/// `name` inside `::testing::TempDir()`, prefixed with this process's id,
/// so two test runs on one machine (a sanitizer tree beside a Release
/// tree, say) never write each other's files.
inline std::string temp_file(const std::string& name) {
  return ::testing::TempDir() + "ptsbe_" + std::to_string(::getpid()) + "_" +
         name;
}

}  // namespace ptsbe::test

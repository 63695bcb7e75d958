#pragma once

/// \file registry.hpp
/// \brief The process-wide name → factory map behind `BackendRegistry` and
/// `StrategyRegistry`.

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ptsbe/common/error.hpp"
#include "ptsbe/common/thread_annotations.hpp"

namespace ptsbe {

/// Mutex-guarded map from unique names to factories. Registration and
/// lookup are thread-safe.
template <typename Factory>
class Registry {
 public:
  /// Register `factory` under `name`.
  /// \throws precondition_error if `name` is empty or already taken, or
  ///         `factory` is empty.
  void add(const std::string& name, Factory factory) {
    PTSBE_REQUIRE(!name.empty(), kind_ + " name must be non-empty");
    PTSBE_REQUIRE(static_cast<bool>(factory),
                  kind_ + " factory must be callable");
    MutexLock lock(mutex_);
    const bool inserted = factories_.emplace(name, std::move(factory)).second;
    PTSBE_REQUIRE(inserted, kind_ + " name already registered: " + name);
  }

  /// True when `name` resolves to a factory.
  [[nodiscard]] bool contains(const std::string& name) const {
    MutexLock lock(mutex_);
    return factories_.count(name) != 0;
  }

  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const {
    MutexLock lock(mutex_);
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& entry : factories_) out.push_back(entry.first);
    return out;  // std::map iteration is already sorted
  }

 protected:
  /// `kind` is what a name names, for error messages ("backend").
  explicit Registry(std::string kind) : kind_(std::move(kind)) {}

  /// The factory registered under `name`.
  /// \throws precondition_error for unknown names (the message lists the
  ///         registered names).
  [[nodiscard]] Factory find(const std::string& name) const {
    Factory factory;
    {
      MutexLock lock(mutex_);
      const auto it = factories_.find(name);
      if (it != factories_.end()) factory = it->second;
    }
    if (!factory) {
      std::ostringstream os;
      os << "unknown " << kind_ << " '" << name << "'; registered:";
      for (const std::string& n : names()) os << ' ' << n;
      throw precondition_error(os.str());
    }
    return factory;
  }

 private:
  const std::string kind_;
  mutable Mutex mutex_;
  std::map<std::string, Factory> factories_ PTSBE_GUARDED_BY(mutex_);
};

}  // namespace ptsbe

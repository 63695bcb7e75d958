#pragma once

/// \file on_worker.hpp
/// \brief Run a computation as the only task of a trajectory executor, so
/// the `parallel_for` calls inside it split across the idle workers.

#include <cstddef>

#include "ptsbe/core/trajectory_executor.hpp"

namespace ptsbe::test {

/// `fn()` computed as the only task of a `threads`-worker executor, whose
/// idle workers take the ranges of the forks inside it.
template <typename Fn>
auto on_worker(std::size_t threads, const Fn& fn) {
  decltype(fn()) out;
  be::TrajectoryExecutor executor(threads);
  executor.spawn([&](std::size_t) { out = fn(); });
  executor.drain([](be::TrajectoryBatch&&) {});
  return out;
}

}  // namespace ptsbe::test

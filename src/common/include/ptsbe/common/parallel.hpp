#pragma once

/// \file parallel.hpp
/// \brief The one fork-join seam: `parallel_for` splits a loop across the
/// calling thread's team, when it has one.
///
/// The library's only threads are the trajectory executor's workers
/// (ptsbe/core/trajectory_executor.hpp). Each installs a `ForkJoin` team for
/// its thread, so the layers below the executor (kernel sweeps and tiles,
/// statevector reductions) reach it without a parameter. Elsewhere — on a
/// thread that is no worker, and inside a range, which a team runs with the
/// slot cleared — `parallel_for` is a plain serial loop.
///
/// A range may run on any thread, so its result must depend on its index
/// only, and whatever combines the ranges' results runs afterwards on the
/// calling thread in index order: no bit depends on the thread count.

#include <cstdint>

namespace ptsbe {

/// Borrowed `void(std::uint64_t)` callable: a range body lives on the
/// caller's stack for one call, so it is neither copied nor allocated.
class RangeBody {
 public:
  template <typename F>
  explicit RangeBody(const F& body) noexcept
      : body_(&body), call_([](const void* b, std::uint64_t index) {
          (*static_cast<const F*>(b))(index);
        }) {}
  void operator()(std::uint64_t index) const { call_(body_, index); }

 private:
  const void* body_;
  void (*call_)(const void*, std::uint64_t);
};

/// A thread's fork-join team.
class ForkJoin {
 public:
  /// Run `body(i)` once for every i in [0, count), each with the team slot
  /// of the thread running it cleared, and return when all have finished.
  /// Rethrows the first exception a range threw; nothing else escapes, so a
  /// team that cannot fork runs the ranges itself.
  virtual void fork(std::uint64_t count, RangeBody body) = 0;

 protected:
  ~ForkJoin() = default;
};

/// The calling thread's team slot: null unless an executor worker installed
/// its team.
[[nodiscard]] inline ForkJoin*& thread_team() noexcept {
  thread_local ForkJoin* team = nullptr;
  return team;
}

/// Run `body(i)` for every i in [0, count): across the calling thread's team
/// when it has one, otherwise serially in index order.
template <typename F>
void parallel_for(std::uint64_t count, const F& body) {
  ForkJoin* const team = thread_team();
  if (team == nullptr || count < 2) {
    for (std::uint64_t i = 0; i < count; ++i) body(i);
    return;
  }
  team->fork(count, RangeBody(body));
}

}  // namespace ptsbe

#pragma once

/// \file common.hpp
/// \brief Shared pieces of the benchmark driver: the in-memory span tracer,
/// the metric/check report, the seeded input generators and small
/// statistics helpers.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "ptsbe/noise/noise_model.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
[[nodiscard]] double since(Clock::time_point start);

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One recorded span: a timed call from the benchmark into one layer.
/// `parent` is 0 for a top-level span; `job` groups the spans of one job.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t job = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Records spans in memory (thread-safe); `write_jsonl` dumps them once the
/// run ends. A disabled tracer reads no clock and stores nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span: opened at construction, recorded at destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t parent,
          std::uint64_t job);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Span id, usable as the parent of nested spans (0 when disabled).
    [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

   private:
    Tracer* tracer_;
    Span span_;
  };

  /// Enable or disable recording between jobs (never while spans are open).
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  /// Open a span; pass the returned scope's id() as `parent` of children.
  [[nodiscard]] Scope span(const char* name, std::uint64_t parent = 0,
                           std::uint64_t job = 0) {
    return Scope(enabled_ ? this : nullptr, name, parent, job);
  }

  /// Snapshot of every recorded span.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Fraction of the wall intervals [start, end) covered by the union of
  /// top-level spans that start inside them.
  [[nodiscard]] double top_level_coverage(
      const std::vector<std::pair<std::int64_t, std::int64_t>>& walls) const;

  /// Nanoseconds since the tracer was created (the span time base).
  [[nodiscard]] std::int64_t now_ns() const;

  /// One JSON object per line: id, parent, job, name, start_ns, end_ns.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one benchmark run prints: the named metrics, the operation
/// counts and the output checks that ran (with their verdicts).
struct Report {
  std::map<std::string, Metric> metrics;
  std::map<std::string, bool> checks;
  std::map<std::string, std::string> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record an output check; a failing check prints `detail` to stderr.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  [[nodiscard]] bool correct() const;
};

/// Run-wide settings parsed from the command line.
struct Settings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy sizes for the self-check (seconds-long runs of every workload).
  bool toy = false;
  /// Directory (inside the checkout) for datasets and the trace file.
  std::string out_dir = ".bench_out";
  /// Executor threads and closed-loop clients (hardware concurrency).
  std::size_t threads = 1;
};

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, p in (0, 100].
[[nodiscard]] double percentile(std::vector<double> values, double p);
/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();
[[nodiscard]] std::string slurp(const std::string& path);
/// FNV-1a over `bytes`, continuing from `h`.
[[nodiscard]] std::uint64_t fnv1a(const void* bytes, std::size_t size,
                                  std::uint64_t h = 1469598103934665603ULL);

/// Run `setup` `reps` times, keeping the last result in place, and return
/// the median wall time of one set-up in seconds. `teardown`, if set, runs
/// untimed before every set-up after the first.
double median_setup(int reps, const std::function<void()>& setup,
                    const std::function<void()>& teardown = {});

// ---------------------------------------------------------------------------
// Seeded input generators (the library receives only what these build)
// ---------------------------------------------------------------------------

/// Brickwork surrogate: `depth` layers of random single-qubit gates
/// (h / t / rx / ry) and alternating CX/CZ bricks on n qubits, depolarizing
/// noise after every gate and amplitude damping before every measurement.
/// The gates depend only on (n, depth); `seed` picks the rotation angles.
[[nodiscard]] ptsbe::NoisyCircuit surrogate_circuit(unsigned n, unsigned depth,
                                                    double p,
                                                    std::uint64_t seed);

/// The paper's bare 5-qubit magic-state distillation circuit with
/// depolarizing noise after every gate.
[[nodiscard]] ptsbe::NoisyCircuit noisy_bare_msd(double p);

/// Dressed GHZ chain on n qubits; `variant` and `twist` shift the rotation
/// angles so every (variant, twist) pair is its own plan-cache entry.
[[nodiscard]] std::string dressed_ghz_ptq(unsigned n, unsigned variant,
                                          double twist);

}  // namespace perfbench

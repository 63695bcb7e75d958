#pragma once

/// \file workloads.hpp
/// \brief The benchmark's workloads and the layer-by-layer calls they share.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "ptsbe/core/batched_execution.hpp"
#include "ptsbe/core/exec_plan.hpp"
#include "ptsbe/serve/engine.hpp"
#include "ptsbe/stats/shot_table.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// One dataset-generation job, called layer by layer
// ---------------------------------------------------------------------------

/// What one dataset job runs: the `probabilistic` strategy on the
/// statevector backend, streamed into a `dataset::StreamWriter`.
struct GenConfig {
  std::size_t nsamples = 100;
  std::uint64_t nshots = 1000;
  ptsbe::be::Schedule schedule = ptsbe::be::Schedule::kIndependent;
  bool fuse = false;
  std::size_t threads = 1;
  /// Seeds of the PTS draws and of BE sampling (a Pipeline uses one seed
  /// for both).
  std::uint64_t pts_seed = 1;
  std::uint64_t seed = 1;
  /// Also tabulate the records inside the sink (for the read-back check).
  bool sink_table = false;
};

/// Measurements and outputs of one dataset job.
struct GenResult {
  double latency_s = 0.0;  ///< PTS start to StreamWriter::close.
  /// PTS start to the end of the read-back, in the tracer's time base: the
  /// wall the job's top-level spans should cover.
  std::pair<std::int64_t, std::int64_t> wall_ns;
  double read_s = 0.0;     ///< stats::table_of_file over the written file.
  double pts_s = 0.0;
  double plan_s = 0.0;
  double be_wall_s = 0.0;
  double write_s = 0.0;  ///< Writer open + every append + close.
  double prepare_busy_s = 0.0;
  double sample_busy_s = 0.0;
  std::uint64_t shots = 0;       ///< Shots BE delivered.
  std::uint64_t spec_shots = 0;  ///< Shot budgets of the realizable specs.
  std::uint64_t bytes = 0;       ///< Dataset file size.
  std::size_t distinct_records = 0;  ///< Distinct records read back.
  double mean_error_weight = 0.0;
  std::size_t gate_sweeps = 0;
  std::size_t unfused_gate_sweeps = 0;
  std::uint64_t digest = 0;  ///< Spec-ordered digest of every batch.
  bool sink_table_matches = true;
  std::vector<ptsbe::TrajectorySpec> specs;
  std::shared_ptr<const ptsbe::ExecPlan> plan;
  ptsbe::stats::ShotTable table;  ///< Read back from the file.
};

/// PTS → plan → BE (streaming into the writer) → close → read back, each
/// call wrapped in a span of `tracer` tagged with `job`.
[[nodiscard]] GenResult generate_dataset(const ptsbe::NoisyCircuit& noisy,
                                         const GenConfig& config,
                                         const std::string& path,
                                         Tracer& tracer, std::uint64_t job);

// ---------------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------------

struct KernelProbe {
  double sweep_ms = 0.0;
  double amps_per_s = 0.0;
  double computed_gib_per_s = 0.0;
};

/// One full sweep of `plan`'s prepared runs through
/// `kernels::apply_prepared_span` on a fresh n-qubit state, repeated for at
/// least `min_seconds`; reports the median sweep.
[[nodiscard]] KernelProbe kernel_probe(const ptsbe::ExecPlan& plan, unsigned n,
                                       double min_seconds, Tracer& tracer);

/// Median microseconds of `io::parse_circuit` over `texts`, repeated for
/// at least `min_seconds`.
[[nodiscard]] double parse_probe_us(const std::vector<std::string>& texts,
                                    double min_seconds, Tracer& tracer);

/// Chi-squared two-sample check: the shot table `big` of `specs` against a
/// run with 1/`reduce` of every spec's shots on the densmat backend, at a
/// false-failure rate of about 1e-6.
[[nodiscard]] bool densmat_chi2_check(const ptsbe::NoisyCircuit& noisy,
                                      const std::vector<ptsbe::TrajectorySpec>&
                                          specs,
                                      const ptsbe::stats::ShotTable& big,
                                      std::uint64_t reduce, std::uint64_t seed,
                                      std::size_t threads, std::string& detail);

// ---------------------------------------------------------------------------
// Served jobs
// ---------------------------------------------------------------------------

/// A generated job stream plus the hot circuits it repeats.
struct JobStream {
  std::vector<ptsbe::serve::JobRequest> jobs;
  std::vector<ptsbe::serve::JobRequest> hot;  ///< One job per hot circuit.
};

/// Result of a closed-loop stream of jobs.
struct StreamStats {
  std::vector<double> latency_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t shots = 0;
  std::uint64_t batches = 0;
  std::uint64_t batch_bytes = 0;  ///< Sum of net::encode_batch sizes.
  double wall_s = 0.0;
  std::int64_t start_ns = 0;  ///< Tracer time base.
  std::int64_t end_ns = 0;
};

/// `clients` blocking net::Clients in a closed loop against the server on
/// `port`, taking jobs from `stream` in order until `seconds` elapse or
/// `max_jobs` are done. Each job is a top-level "net.job" span;
/// `count_bytes` re-encodes every received batch.
[[nodiscard]] StreamStats run_remote_stream(const JobStream& stream,
                                            std::uint16_t port,
                                            std::size_t clients, double seconds,
                                            std::size_t max_jobs, bool count_bytes,
                                            Tracer& tracer);

/// The same closed loop through an in-process `serve::Engine`
/// (submit → wait); each job is a top-level "serve.job" span.
[[nodiscard]] StreamStats run_engine_stream(const JobStream& stream,
                                            ptsbe::serve::Engine& engine,
                                            std::size_t clients, double seconds,
                                            std::size_t max_jobs, Tracer& tracer);

/// Serve- and net-layer figures of one job stream.
struct ServeLayers {
  StreamStats engine;  ///< In-process Engine::submit → wait.
  StreamStats remote;  ///< Over the wire, batches re-encoded.
  double plan_cache_hit_rate = 0.0;
  double admitted_ratio = 0.0;
  double queue_high_water = 0.0;
};

/// Engine config the serve workload and the probes share.
[[nodiscard]] ptsbe::serve::EngineConfig engine_config(std::size_t workers);

/// Runs `stream` through a fresh in-process engine and then over the wire
/// to a fresh server, for `seconds` or `max_jobs` each. With `warm`, each
/// first runs the hot jobs once, outside the measurement.
[[nodiscard]] ServeLayers serve_probe(const JobStream& stream,
                                      std::size_t workers, std::size_t clients,
                                      double seconds, std::size_t max_jobs,
                                      bool warm, Tracer& tracer);

/// Adds the serve.* and net.* per-layer metrics to `report`;
/// `untraced_remote_p50_ms` is the remote median the wire overhead is
/// measured from.
void report_serve_layers(const ServeLayers& layers,
                         double untraced_remote_p50_ms, Report& report);

/// Adds the pts/plan/kernels/be/sample/dataset/stats per-layer metrics as
/// medians over `jobs` (traced dataset jobs).
void report_dataset_layers(const std::vector<GenResult>& jobs,
                           std::size_t draws, std::size_t threads,
                           const KernelProbe& kernels, Report& report);

// ---------------------------------------------------------------------------
// Workload entry points
// ---------------------------------------------------------------------------

/// `dataset-prep-bound` and `dataset-shot-bound`.
void run_dataset_workload(const Settings& settings, Report& report,
                          Tracer& tracer);
/// `serve-small-jobs`.
void run_serve_workload(const Settings& settings, Report& report,
                        Tracer& tracer);

}  // namespace perfbench

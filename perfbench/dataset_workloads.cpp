// The two dataset-generation workloads and the layer calls every workload
// shares: one dataset job (PTS → plan → BE → StreamWriter → read-back), the
// kernel and parser probes, and the densmat chi-squared check.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>

#include "ptsbe/common/aligned.hpp"
#include "ptsbe/core/backend.hpp"
#include "ptsbe/core/dataset.hpp"
#include "ptsbe/core/strategy.hpp"
#include "ptsbe/io/ptq.hpp"
#include "ptsbe/kernels/kernel_set.hpp"
#include "ptsbe/stats/compare.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace be = ptsbe::be;
namespace stats = ptsbe::stats;

namespace {

/// Workload sizes; `toy` sizes keep the self-check to seconds.
struct DatasetSizes {
  unsigned qubits = 0;  ///< Surrogate width (prep-bound only).
  unsigned depth = 0;
  std::size_t nsamples = 0;
  std::uint64_t nshots = 0;
  std::size_t warm_nsamples = 0;  ///< Set-up warm-up job.
  std::uint64_t warm_nshots = 0;
  std::size_t probe_nsamples = 0;  ///< Serve/net probe job.
  std::uint64_t probe_nshots = 0;
};

DatasetSizes sizes_for(bool prep_bound, bool toy) {
  if (prep_bound)
    return toy ? DatasetSizes{10, 4, 20, 100, 2, 100, 1, 100}
               : DatasetSizes{20, 12, 40, 1000, 2, 100, 1, 100};
  return toy ? DatasetSizes{0, 0, 64, 2000, 64, 100, 64, 100}
             : DatasetSizes{0, 0, 64, 500000, 64, 20000, 64, 1000};
}

/// Draw sets a run cycles through.
constexpr std::uint64_t kVariants = 4;

/// Densmat reference runs 1/kChi2Reduce of every spec's shots.
constexpr std::uint64_t kChi2Reduce = 100;

/// Word-at-a-time digest of one batch: it runs in the sink, on the calling
/// thread, over every record, so it must stay far cheaper than the write.
std::uint64_t batch_digest(const be::TrajectoryBatch& batch) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t word) {
    h = (h ^ word) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
  };
  mix(batch.spec_index);
  for (const ptsbe::BranchChoice& choice : batch.spec.branches) {
    mix(choice.site);
    mix(choice.branch);
  }
  std::uint64_t probability_bits = 0;
  std::memcpy(&probability_bits, &batch.realized_probability, sizeof(double));
  mix(probability_bits);
  for (const std::uint64_t record : batch.records) mix(record);
  return h;
}

/// Upper 1-alpha quantile of chi-squared with `df` degrees of freedom
/// (Wilson–Hilferty), for alpha = 1e-6 (z = 4.7534).
double chi2_critical(double df) {
  constexpr double kZ = 4.7534;
  const double a = 2.0 / (9.0 * df);
  return df * std::pow(1.0 - a + kZ * std::sqrt(a), 3.0);
}

}  // namespace

GenResult generate_dataset(const ptsbe::NoisyCircuit& noisy,
                           const GenConfig& config, const std::string& path,
                           Tracer& tracer, std::uint64_t job) {
  GenResult out;
  out.wall_ns.first = tracer.now_ns();
  const Clock::time_point start = Clock::now();
  {
    const auto span = tracer.span("pts", 0, job);
    ptsbe::pts::StrategyConfig strategy;
    strategy.nsamples = config.nsamples;
    strategy.nshots = config.nshots;
    ptsbe::RngStream rng(config.pts_seed);
    out.specs =
        ptsbe::pts::make_strategy("probabilistic")->sample(noisy, strategy, rng);
  }
  out.pts_s = since(start);

  ptsbe::BackendConfig backend_config;
  backend_config.fuse_gates = config.fuse;
  Clock::time_point t = Clock::now();
  {
    const auto span = tracer.span("plan", 0, job);
    out.plan = std::make_shared<const ptsbe::ExecPlan>(
        ptsbe::make_backend("statevector", backend_config)->make_plan(noisy));
  }
  out.plan_s = since(t);

  t = Clock::now();
  std::optional<ptsbe::dataset::StreamWriter> writer;
  {
    const auto span = tracer.span("dataset.open", 0, job);
    writer.emplace(path);
  }
  out.write_s += since(t);

  be::Options options;
  options.backend = "statevector";
  options.config = backend_config;
  options.schedule = config.schedule;
  options.threads = config.threads;
  options.seed = config.seed;
  options.plan = out.plan;
  std::vector<std::uint64_t> digests(out.specs.size(), 0);
  stats::ShotTable sink_table;
  t = Clock::now();
  be::StreamSummary summary;
  {
    const auto be_span = tracer.span("be", 0, job);
    const std::uint64_t be_id = be_span.id();
    summary = be::execute_streaming(
        noisy, out.specs, options, [&](be::TrajectoryBatch&& batch) {
          digests[batch.spec_index] = batch_digest(batch);
          // Unrealizable specs (probability 0) legitimately carry no shots.
          if (batch.realized_probability > 0.0) out.spec_shots += batch.spec.shots;
          if (config.sink_table) sink_table.add_batch(batch);
          const auto span = tracer.span("dataset.append", be_id, job);
          const Clock::time_point a = Clock::now();
          writer->append(batch);
          out.write_s += since(a);
        });
  }
  out.be_wall_s = since(t);

  t = Clock::now();
  {
    const auto span = tracer.span("dataset.close", 0, job);
    writer->close();
  }
  out.write_s += since(t);
  out.latency_s = since(start);
  out.bytes = writer->bytes_written();

  t = Clock::now();
  {
    const auto span = tracer.span("stats.read", 0, job);
    out.table = stats::table_of_file(path);
  }
  out.read_s = since(t);
  out.wall_ns.second = tracer.now_ns();
  out.distinct_records = out.table.distinct();

  out.shots = summary.total_shots;
  out.prepare_busy_s = summary.prepare_seconds;
  out.sample_busy_s = summary.sample_seconds;
  out.gate_sweeps = out.plan->gate_count;
  out.unfused_gate_sweeps = out.plan->unfused_gate_count;
  double weight = 0.0;
  for (const ptsbe::TrajectorySpec& spec : out.specs)
    weight += static_cast<double>(spec.error_weight());
  out.mean_error_weight =
      out.specs.empty() ? 0.0 : weight / static_cast<double>(out.specs.size());
  out.digest = fnv1a(digests.data(), digests.size() * sizeof(std::uint64_t));
  if (config.sink_table) out.sink_table_matches = sink_table == out.table;
  return out;
}

KernelProbe kernel_probe(const ptsbe::ExecPlan& plan, unsigned n,
                         double min_seconds, Tracer& tracer) {
  const std::uint64_t dim = std::uint64_t{1} << n;
  const ptsbe::kernels::KernelSet& kernels = ptsbe::kernels::active();
  std::size_t gates = 0;
  for (const ptsbe::ExecPlan::PreparedRun& run : plan.prepared_runs)
    gates += run.gates.size();
  ptsbe::AlignedVector<ptsbe::cplx> amps(dim);
  std::vector<double> sweeps;
  const auto span = tracer.span("kernels.probe");
  const Clock::time_point start = Clock::now();
  while (sweeps.size() < 3 || since(start) < min_seconds) {
    std::fill(amps.begin(), amps.end(), ptsbe::cplx{0.0, 0.0});
    amps[0] = 1.0;
    const Clock::time_point t = Clock::now();
    for (const ptsbe::ExecPlan::PreparedRun& run : plan.prepared_runs)
      ptsbe::kernels::apply_prepared_span(kernels, amps.data(), dim, run.gates);
    sweeps.push_back(since(t));
  }
  const double sweep_s = median(sweeps);
  const double amp_updates = static_cast<double>(dim) * static_cast<double>(gates);
  KernelProbe probe;
  probe.sweep_ms = 1e3 * sweep_s;
  probe.amps_per_s = amp_updates / sweep_s;
  // Computed traffic: every gate sweep reads and writes 16-byte amplitudes.
  probe.computed_gib_per_s =
      2.0 * 16.0 * amp_updates / sweep_s / (1024.0 * 1024.0 * 1024.0);
  return probe;
}

double parse_probe_us(const std::vector<std::string>& texts,
                      double min_seconds, Tracer& tracer) {
  std::vector<double> parses;
  const auto span = tracer.span("io.probe");
  const Clock::time_point start = Clock::now();
  while (parses.size() < 20 || since(start) < min_seconds) {
    for (const std::string& text : texts) {
      const Clock::time_point t = Clock::now();
      const ptsbe::NoisyCircuit parsed = ptsbe::io::parse_circuit(text);
      parses.push_back(1e6 * since(t));
    }
  }
  return median(parses);
}

bool densmat_chi2_check(const ptsbe::NoisyCircuit& noisy,
                        const std::vector<ptsbe::TrajectorySpec>& specs,
                        const stats::ShotTable& big, std::uint64_t reduce,
                        std::uint64_t seed, std::size_t threads,
                        std::string& detail) {
  std::vector<ptsbe::TrajectorySpec> small = specs;
  for (ptsbe::TrajectorySpec& spec : small)
    spec.shots = std::max<std::uint64_t>(1, spec.shots / reduce);
  be::Options options;
  options.backend = "densmat";
  options.threads = threads;
  options.seed = seed ^ 0xD3A5E7ULL;
  stats::ShotTable reference;
  (void)be::execute_streaming(
      noisy, small, options,
      [&](be::TrajectoryBatch&& batch) { reference.add_batch(batch); });

  // The small densmat sample is "observed"; the big statevector table,
  // scaled to its total, is "expected". Bins expecting fewer than 5 shots
  // are pooled. The (1 + N2/N1) factor accounts for the sampling noise of
  // the expectation itself (two-sample variance).
  const double n_big = big.total();
  const double n_ref = reference.total();
  constexpr std::uint64_t kPooled = ~std::uint64_t{0};
  const auto bin = [&](std::uint64_t record) {
    return big.weight_of(record) * n_ref / n_big >= 5.0 ? record : kPooled;
  };
  stats::ShotTable observed;
  stats::ShotTable expected;
  for (const auto& [record, weight] : big.entries())
    expected.add(bin(record), weight * n_ref / n_big);
  for (const auto& [record, weight] : reference.entries())
    observed.add(bin(record), weight);
  const double chi2 = stats::compare(observed, expected).chi_squared_cost;
  const double df = static_cast<double>(expected.distinct()) - 1.0;
  const double critical = chi2_critical(std::max(1.0, df)) * (1.0 + n_ref / n_big);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "chi2 %.3f vs critical %.3f (df %.0f, %.0f vs %.0f shots)",
                chi2, critical, df, n_big, n_ref);
  detail = buf;
  return chi2 <= critical;
}

void report_dataset_layers(const std::vector<GenResult>& jobs,
                           std::size_t draws, std::size_t threads,
                           const KernelProbe& kernels, Report& report) {
  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const GenResult& r : jobs) v.push_back(static_cast<double>(field(r)));
    return median(v);
  };
  const double specs = med([](const GenResult& r) { return r.specs.size(); });
  report.metric("pts.seconds", med([](const GenResult& r) { return r.pts_s; }), "s");
  report.metric("pts.specs", specs, "count");
  report.metric("pts.unique_ratio", specs / static_cast<double>(draws), "ratio");
  report.metric("pts.mean_error_weight",
                med([](const GenResult& r) { return r.mean_error_weight; }), "count");

  const double sweeps = med([](const GenResult& r) { return r.gate_sweeps; });
  report.metric("plan.seconds", med([](const GenResult& r) { return r.plan_s; }), "s");
  report.metric("plan.gate_sweeps", sweeps, "count");
  report.metric("plan.fusion_ratio",
                sweeps / med([](const GenResult& r) { return r.unfused_gate_sweeps; }),
                "ratio");

  report.metric("kernels.sweep_ms", kernels.sweep_ms, "ms");
  report.metric("kernels.amps_per_s", kernels.amps_per_s, "1/s");
  report.metric("kernels.computed_gib_per_s", kernels.computed_gib_per_s, "GiB/s");

  const double wall = med([](const GenResult& r) { return r.be_wall_s; });
  const double prepare = med([](const GenResult& r) { return r.prepare_busy_s; });
  const double sample = med([](const GenResult& r) { return r.sample_busy_s; });
  report.metric("be.wall_s", wall, "s");
  report.metric("be.prepare_busy_s", prepare, "s");
  report.metric("be.sample_busy_s", sample, "s");
  report.metric("be.worker_busy_ratio",
                (prepare + sample) / (wall * static_cast<double>(threads)), "ratio");
  report.metric("sample.shots_per_busy_s",
                med([](const GenResult& r) { return r.shots / r.sample_busy_s; }),
                "1/s");

  constexpr double kMiB = 1024.0 * 1024.0;
  report.metric("dataset.write_s", med([](const GenResult& r) { return r.write_s; }),
                "s");
  report.metric("dataset.write_mib_per_s",
                med([](const GenResult& r) { return r.bytes / kMiB / r.write_s; }),
                "MiB/s");
  report.metric("dataset.bytes", med([](const GenResult& r) { return r.bytes; }), "B");
  report.metric("stats.read_s", med([](const GenResult& r) { return r.read_s; }), "s");
  report.metric("stats.read_mib_per_s",
                med([](const GenResult& r) { return r.bytes / kMiB / r.read_s; }),
                "MiB/s");
  report.metric("stats.records_per_s",
                med([](const GenResult& r) { return r.shots / r.read_s; }), "1/s");
  report.metric("stats.distinct_records",
                med([](const GenResult& r) { return r.distinct_records; }), "count");
}

void run_dataset_workload(const Settings& settings, Report& report,
                          Tracer& tracer) {
  const bool prep_bound = settings.workload == "dataset-prep-bound";
  const DatasetSizes size = sizes_for(prep_bound, settings.toy);
  GenConfig config;
  config.nsamples = size.nsamples;
  config.nshots = size.nshots;
  config.schedule = prep_bound ? be::Schedule::kSharedPrefix
                               : be::Schedule::kIndependent;
  config.fuse = prep_bound;
  config.threads = settings.threads;
  config.sink_table = prep_bound;
  const std::string path = settings.out_dir + "/" + settings.workload + ".ptsb";
  // Jobs cycle through kVariants draw sets. Draw set v comes from the same
  // fixed seed in every run, so every run prepares the same trie shapes and
  // its cost does not hinge on a few lucky draws; the run seed picks the
  // circuit's angles and the sampling streams.
  const auto variant = [&](std::uint64_t v) {
    GenConfig c = config;
    c.pts_seed = fnv1a(&v, sizeof v);
    c.seed = fnv1a(&v, sizeof v, settings.seed);
    return c;
  };

  // Set-up: generate the circuit from the seed, hand it to the library as
  // .ptq text, resolve the kernel dispatch and warm up with a small job.
  std::string text;
  std::optional<ptsbe::NoisyCircuit> noisy;
  tracer.set_enabled(false);
  const double setup_s = median_setup(5, [&] {
    text = ptsbe::io::write_circuit(
        prep_bound ? surrogate_circuit(size.qubits, size.depth, 0.002,
                                       settings.seed)
                   : noisy_bare_msd(0.01));
    noisy.emplace(ptsbe::io::parse_circuit(text));
    (void)ptsbe::kernels::active();
    GenConfig warm = variant(~std::uint64_t{0});
    warm.nsamples = size.warm_nsamples;
    warm.nshots = size.warm_nshots;
    (void)generate_dataset(*noisy, warm, path, tracer, 0);
    std::filesystem::remove(path);
  });

  // One job: run, check, keep its figures (and only the last read-back
  // table, for the chi-squared check).
  GenResult last;
  const auto run_job = [&](const GenConfig& c, std::uint64_t job, bool traced,
                           std::vector<std::pair<std::int64_t, std::int64_t>>* walls) {
    tracer.set_enabled(traced);
    last = generate_dataset(*noisy, c, path, tracer, job);
    if (walls != nullptr) walls->push_back(last.wall_ns);
    tracer.set_enabled(false);
    // Remove the file now, so the next job's open does not pay for
    // truncating it.
    std::filesystem::remove(path);
    ++report.attempted;
    const bool conserved = last.shots == last.spec_shots &&
                           last.table.total() == static_cast<double>(last.shots);
    report.check("shots_conserved", conserved,
                 std::to_string(last.shots) + " shots vs " +
                     std::to_string(last.spec_shots) + " budgeted");
    if (prep_bound) report.check("sink_table_equals_readback", last.sink_table_matches);
    if (!conserved || !last.sink_table_matches) ++report.failed;
    ptsbe::stats::ShotTable table = std::move(last.table);
    GenResult kept = last;
    last.table = std::move(table);
    return kept;
  };

  // Timed jobs, at least one full cycle plus a repeat. With tracing, every
  // job runs twice on the same inputs, untraced then traced: the pair gives
  // the tracing overhead.
  std::vector<GenResult> untraced;
  std::vector<GenResult> traced;
  std::vector<std::pair<std::int64_t, std::int64_t>> traced_walls;
  std::map<std::uint64_t, std::uint64_t> digest_of_variant;
  std::map<std::uint64_t, std::vector<double>> latency_of_variant;
  const std::size_t min_jobs = settings.trace ? 2 : kVariants + 1;
  double job_s = 0.0;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t k = 0;; ++k) {
    if (untraced.size() >= min_jobs && since(start) + job_s > settings.seconds) break;
    const Clock::time_point job_start = Clock::now();
    const std::uint64_t v = k % kVariants;
    // Dataset job ids sit above the ids of the served probe jobs.
    const std::uint64_t job = (std::uint64_t{1} << 32) + 2 * k;
    untraced.push_back(run_job(variant(v), job + 1, false, nullptr));
    latency_of_variant[v].push_back(untraced.back().latency_s);
    const auto [it, first] = digest_of_variant.emplace(v, untraced.back().digest);
    if (!first)
      report.check("digest_stable_across_repeats", it->second == untraced.back().digest);
    if (settings.trace) {
      traced.push_back(run_job(variant(v), job + 2, true, &traced_walls));
      report.check("digest_stable_across_repeats",
                   traced.back().digest == untraced.back().digest);
    }
    job_s = since(job_start);
  }
  const double rss = peak_rss_mib();
  if (!prep_bound) {
    std::string detail;
    const bool ok = densmat_chi2_check(*noisy, last.specs, last.table, kChi2Reduce,
                                       settings.seed, settings.threads, detail);
    report.check("chi2_vs_densmat", ok, detail);
    report.info["chi2_vs_densmat"] = detail;
  }
  report.info["latency_samples"] = std::to_string(untraced.size());

  if (!settings.trace) {
    // Rates over one cycle of the draw sets, each timed by the median of
    // its repeats.
    double cycle_s = 0.0;
    double shots = 0.0;
    double bytes = 0.0;
    for (std::uint64_t v = 0; v < kVariants && v < untraced.size(); ++v) {
      cycle_s += median(latency_of_variant[v]);
      shots += static_cast<double>(untraced[v].shots);
      bytes += static_cast<double>(untraced[v].bytes);
    }
    std::vector<double> latency_ms;
    for (const GenResult& r : untraced) latency_ms.push_back(1e3 * r.latency_s);
    report.metric("shots_per_s", shots / cycle_s, "1/s");
    report.metric("dataset_bytes_per_shot", bytes / shots, "B");
    report.metric("jobs_per_s",
                  static_cast<double>(std::min<std::size_t>(kVariants, untraced.size())) /
                      cycle_s,
                  "1/s");
    report.metric("job_latency_p50_ms", median(latency_ms), "ms");
    report.metric("job_latency_p99_ms", percentile(latency_ms, 99.0), "ms");
    report.metric("setup_s", setup_s, "s");
    return;
  }
  report.metric("mem.peak_rss_mib", rss, "MiB");

  tracer.set_enabled(true);
  const KernelProbe kernels =
      kernel_probe(*last.plan, noisy->num_qubits(), 0.2, tracer);
  report_dataset_layers(traced, config.nsamples, config.threads, kernels, report);
  report.metric("io.parse_us", parse_probe_us({text}, 0.1, tracer), "us");

  // Serve/net layers: the workload's own circuit as two small served jobs
  // (a plan-cache miss, then a hit) in-process and over the wire.
  JobStream probe;
  for (std::uint64_t i = 0; i < 2; ++i) {
    ptsbe::serve::JobRequest req;
    req.circuit_text = text;
    req.tenant = "dataset";
    req.strategy_config.nsamples = size.probe_nsamples;
    req.strategy_config.nshots = size.probe_nshots;
    req.seed = settings.seed + i;
    probe.jobs.push_back(std::move(req));
  }
  const ServeLayers layers = serve_probe(probe, 1, 1, 1e9, probe.jobs.size(),
                                         /*warm=*/false, tracer);
  report.attempted += layers.engine.attempted + layers.remote.attempted;
  report.failed += layers.engine.failed + layers.remote.failed;
  report.check("all_jobs_done", layers.engine.failed + layers.remote.failed == 0);
  report_serve_layers(layers, median(layers.remote.latency_ms), report);

  std::vector<double> ratios;
  for (std::size_t i = 0; i < traced.size(); ++i)
    ratios.push_back((traced[i].latency_s + traced[i].read_s) /
                     (untraced[i].latency_s + untraced[i].read_s));
  report.metric("trace.overhead_ratio", median(ratios), "ratio");
  report.metric("trace.coverage", tracer.top_level_coverage(traced_walls), "ratio");
}

}  // namespace perfbench

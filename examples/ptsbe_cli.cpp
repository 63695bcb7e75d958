// ptsbe_cli — the "config file / CLI selects components by name" promise of
// the registries, end to end: every pipeline stage (PTS strategy, simulator
// backend, shot budgets, threads, seed) is chosen by command-line flag and
// wired through the ptsbe::Pipeline facade. No flag maps to a type; strategy
// and backend are plain registry names, so a plugin registered at startup is
// immediately scriptable here.
//
// Workload: an n-qubit GHZ circuit with depolarizing gate noise and
// bit-flip readout noise — small enough for every backend, noisy enough for
// every strategy to have something to sample.
//
//   ptsbe_cli --list
//   ptsbe_cli --strategy band --p-min 1e-6 --p-max 1e-2 --backend mps
//   ptsbe_cli --strategy enumerate --cutoff 1e-5 --threads 8 --seed 7
//   ptsbe_cli --circuit bell.ptq --nshots 1000
//   ptsbe_cli --qec repetition --distance 5 --rounds 3
//   ptsbe_cli --compare shard_a.bin shard_b.bin --json
//   ptsbe_cli --merge merged.bin shard0.bin shard1.bin shard2.bin
//
// With --circuit the workload is read from a `.ptq` file (circuit + noise
// sites as data — see ptsbe/io/ptq.hpp) instead of the built-in GHZ demo;
// --qubits/--noise then do not apply.
//
// With --qec the workload is a QEC memory experiment (qec::make_memory_workload):
// encode, --rounds of syndrome extraction, transversal readout, with
// depolarizing gate noise of strength --noise (readout bit-flips at half
// that). The records are decoded (--decoder) and the logical error rate is
// reported with a 95% Wilson interval; --emit-ptq saves the exact noisy
// program as a `.ptq` job spec a serve::Engine tenant can submit verbatim,
// and --emit-dataset saves the labelled shots as a compare-ready PTSB shard.
//
// --compare and --merge are dataset-analytics modes (ptsbe::stats) that run
// no simulation at all: --compare tabulates two PTSB datasets out-of-core
// and reports the four BranchTab-style distances (bit-identical files give
// exactly 0 for all four); --merge recombines N spec-ordered shards into
// one dataset via the k-way merge under --merge-budget bytes of buffering.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>

#include <vector>

#include "ptsbe/core/pipeline.hpp"
#include "ptsbe/io/ptq.hpp"
#include "ptsbe/kernels/kernel_set.hpp"
#include "ptsbe/noise/channels.hpp"
#include "ptsbe/qec/metrics.hpp"
#include "ptsbe/stats/compare.hpp"
#include "ptsbe/stats/merge.hpp"
#include "ptsbe/stats/shot_table.hpp"

namespace {

void usage(std::FILE* os, const char* argv0) {
  std::fprintf(os,
      "usage: %s [options]\n"
      "  --list                 print registered strategies/backends and exit\n"
      "  --strategy NAME        PTS strategy registry name [probabilistic]\n"
      "  --backend NAME         simulator backend registry name [statevector]\n"
      "  --schedule NAME        trajectory schedule: independent or\n"
      "                         shared-prefix (bit-identical records;\n"
      "                         overlapping preparations amortised)\n"
      "  --fuse                 fuse adjacent same-support gates before the\n"
      "                         preparation sweep (amplitude backends)\n"
      "  --kernel NAME          amplitude kernel set: scalar, avx2, avx512\n"
      "                         or auto (best this CPU supports); overrides\n"
      "                         the PTSBE_KERNEL environment variable;\n"
      "                         records are bit-identical across kernel\n"
      "                         sets [auto]\n"
      "  --circuit PATH         run the .ptq circuit file instead of the\n"
      "                         built-in GHZ demo (--qubits/--noise ignored)\n"
      "  --qec CODE             run a QEC memory experiment instead of the\n"
      "                         GHZ demo: repetition, surface or steane\n"
      "  --distance D           QEC code distance [3]\n"
      "  --rounds R             QEC syndrome-extraction rounds [2]\n"
      "  --basis B              QEC memory basis: z or x [z]\n"
      "  --decoder NAME         QEC decoder: lookup, union-find (both\n"
      "                         final-data spatial) or st-union-find\n"
      "                         (space-time, decodes the syndrome history)\n"
      "                         [st-union-find]\n"
      "  --emit-ptq PATH        save the QEC noisy program as a .ptq job\n"
      "                         spec (servable via serve::Engine)\n"
      "  --emit-dataset PATH    save the QEC labelled shots as a PTSB binary\n"
      "                         shard, ready for --compare/--merge\n"
      "  --compare A B          tabulate two PTSB datasets out-of-core and\n"
      "                         report KL divergence, chi-squared cost,\n"
      "                         Poisson log-cost and total variation\n"
      "                         (bit-identical files give exactly 0)\n"
      "  --merge OUT IN...      k-way merge N spec-ordered PTSB shards into\n"
      "                         OUT under the --merge-budget byte bound\n"
      "  --merge-budget BYTES   buffered-batch bound for --merge [67108864]\n"
      "  --view MODE            dataset access mode for --compare/--merge:\n"
      "                         auto, mmap or stream [auto]\n"
      "  --json                 emit --compare/--merge results as JSON\n"
      "  --qubits N             GHZ workload width [6]\n"
      "  --noise P              depolarizing probability per gate [0.01]\n"
      "  --nsamples N           candidate trajectory draws [2000]\n"
      "  --nshots N             shots per surviving trajectory [500]\n"
      "  --threads N            worker threads, the only threads a run\n"
      "                         uses: they run trajectories, and idle ones\n"
      "                         split a running preparation (0 = hardware\n"
      "                         concurrency; records are bit-identical at\n"
      "                         every count) [1]\n"
      "  --seed S               master seed for PTS and BE [42]\n"
      "  --cutoff P             'enumerate' probability cutoff [1e-6]\n"
      "  --p-min P --p-max P    'band' probability window [0, 1]\n"
      "  --boost B --radius R   'correlated' burst parameters [4, 1]\n"
      "  --csv PATH             export the labelled shots as CSV\n"
      "  --binary PATH          export the labelled shots as PTSB binary\n",
      argv0);
}

/// Fail fast on bad registry names: report, print usage, exit 2 — before
/// any workload is built or any state allocated. Without this, a typo like
/// `--strategy probablistic` used to surface only deep inside run() (and
/// exercised none of the CLI's own output paths).
[[noreturn]] void reject(const char* argv0, const std::string& what) {
  std::fprintf(stderr, "error: %s\n\n", what.c_str());
  usage(stderr, argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ptsbe;

  std::string strategy = "probabilistic";
  std::string backend = "statevector";
  bool backend_explicit = false;
  std::string schedule = "independent";
  bool fuse = false;
  std::string kernel;
  std::string circuit_path;
  std::string qec_code;
  unsigned qec_distance = 3;
  unsigned qec_rounds = 2;
  std::string qec_basis = "z";
  std::string qec_decoder = "st-union-find";
  std::string emit_ptq_path;
  std::string emit_dataset_path;
  std::string compare_a, compare_b;
  std::string merge_out;
  std::vector<std::string> merge_inputs;
  std::uint64_t merge_budget = 64ULL << 20;
  std::string view_mode = "auto";
  bool json_output = false;
  std::string csv_path, binary_path;
  unsigned qubits = 6;
  double noise_p = 0.01;
  std::size_t threads = 1;
  std::uint64_t seed = 42;
  pts::StrategyConfig cfg;
  cfg.nsamples = 2000;
  cfg.nshots = 500;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout, argv[0]);
      return 0;
    } else if (arg == "--list") {
      std::printf("strategies:");
      for (const auto& n : pts::StrategyRegistry::instance().names())
        std::printf(" %s", n.c_str());
      std::printf("\nbackends:  ");
      for (const auto& n : BackendRegistry::instance().names())
        std::printf(" %s", n.c_str());
      std::printf("\nkernels:    %s\n", kernels::describe_dispatch().c_str());
      return 0;
    } else if (arg == "--strategy") {
      strategy = value();
    } else if (arg == "--backend") {
      backend = value();
      backend_explicit = true;
    } else if (arg == "--schedule") {
      schedule = value();
    } else if (arg == "--fuse") {
      fuse = true;
    } else if (arg == "--kernel") {
      kernel = value();
    } else if (arg == "--circuit") {
      circuit_path = value();
    } else if (arg == "--qec") {
      qec_code = value();
    } else if (arg == "--distance") {
      qec_distance = static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--rounds") {
      qec_rounds = static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--basis") {
      qec_basis = value();
    } else if (arg == "--decoder") {
      qec_decoder = value();
    } else if (arg == "--emit-ptq") {
      emit_ptq_path = value();
    } else if (arg == "--emit-dataset") {
      emit_dataset_path = value();
    } else if (arg == "--compare") {
      compare_a = value();
      compare_b = value();
    } else if (arg == "--merge") {
      // --merge OUT IN... : the output path, then every following
      // non-flag argument is an input shard.
      merge_out = value();
      while (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
        merge_inputs.emplace_back(argv[++i]);
    } else if (arg == "--merge-budget") {
      merge_budget = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--view") {
      view_mode = value();
    } else if (arg == "--json") {
      json_output = true;
    } else if (arg == "--qubits") {
      qubits = static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--noise") {
      noise_p = std::strtod(value(), nullptr);
    } else if (arg == "--nsamples") {
      cfg.nsamples = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--nshots") {
      cfg.nshots = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--threads") {
      threads = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--seed") {
      seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--cutoff") {
      cfg.probability_cutoff = std::strtod(value(), nullptr);
    } else if (arg == "--p-min") {
      cfg.p_min = std::strtod(value(), nullptr);
    } else if (arg == "--p-max") {
      cfg.p_max = std::strtod(value(), nullptr);
    } else if (arg == "--boost") {
      cfg.boost = std::strtod(value(), nullptr);
    } else if (arg == "--radius") {
      cfg.radius = static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--csv") {
      csv_path = value();
    } else if (arg == "--binary") {
      binary_path = value();
    } else {
      std::fprintf(stderr, "unknown option '%s'\n\n", arg.c_str());
      usage(stderr, argv[0]);
      return 2;
    }
  }

  // Validate every registry-keyed flag up front, before any work happens.
  if (!pts::StrategyRegistry::instance().contains(strategy)) {
    std::string known;
    for (const auto& n : pts::StrategyRegistry::instance().names())
      known += ' ' + n;
    reject(argv[0], "unknown strategy '" + strategy +
                        "'; registered strategies:" + known);
  }
  if (!BackendRegistry::instance().contains(backend)) {
    std::string known;
    for (const auto& n : BackendRegistry::instance().names()) known += ' ' + n;
    reject(argv[0],
           "unknown backend '" + backend + "'; registered backends:" + known);
  }
  try {
    // schedule_from_string owns the name list; its message enumerates it.
    (void)be::schedule_from_string(schedule);
  } catch (const std::exception& e) {
    reject(argv[0], e.what());
  }
  if (!kernel.empty()) {
    try {
      // Binds the amplitude kernel set for the whole process; an unknown or
      // CPU-unsupported name fails fast (the message lists what exists).
      kernels::set_active(kernel);
    } catch (const std::exception& e) {
      reject(argv[0], e.what());
    }
  }
  // Dataset-analytics modes: validated and dispatched before any workload
  // machinery — they touch only PTSB bytes, never the registries.
  dataset::ViewMode view = dataset::ViewMode::kAuto;
  try {
    view = dataset::view_mode_from_string(view_mode);
  } catch (const std::exception& e) {
    reject(argv[0], e.what());
  }
  if (!compare_a.empty() && !merge_out.empty())
    reject(argv[0], "--compare and --merge are mutually exclusive");
  if (!merge_out.empty() && merge_inputs.empty())
    reject(argv[0], "--merge needs at least one input shard");
  if (!merge_out.empty()) {
    try {
      stats::MergeOptions options;
      options.memory_budget_bytes = merge_budget;
      options.view = view;
      const stats::MergeReport report =
          stats::merge_datasets(merge_out, merge_inputs, options);
      if (json_output) {
        std::printf(
            "{\"output\":\"%s\",\"inputs\":%llu,\"batches\":%llu,"
            "\"records\":%llu,\"bytes_out\":%llu,"
            "\"peak_buffered_bytes\":%llu,\"memory_budget_bytes\":%llu}\n",
            merge_out.c_str(),
            static_cast<unsigned long long>(report.inputs),
            static_cast<unsigned long long>(report.batches),
            static_cast<unsigned long long>(report.records),
            static_cast<unsigned long long>(report.bytes_out),
            static_cast<unsigned long long>(report.peak_buffered_bytes),
            static_cast<unsigned long long>(merge_budget));
      } else {
        std::printf(
            "merged %llu shards -> %s: batches=%llu records=%llu "
            "bytes=%llu peak_buffered=%llu (budget %llu)\n",
            static_cast<unsigned long long>(report.inputs), merge_out.c_str(),
            static_cast<unsigned long long>(report.batches),
            static_cast<unsigned long long>(report.records),
            static_cast<unsigned long long>(report.bytes_out),
            static_cast<unsigned long long>(report.peak_buffered_bytes),
            static_cast<unsigned long long>(merge_budget));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    return 0;
  }
  if (!compare_a.empty()) {
    try {
      const stats::ShotTable observed = stats::table_of_file(compare_a, view);
      const stats::ShotTable expected = stats::table_of_file(compare_b, view);
      const stats::Comparison c = stats::compare(observed, expected);
      if (json_output) {
        std::printf("%s\n", stats::comparison_to_json(c).c_str());
      } else {
        std::printf("observed: %s (total=%.17g distinct=%zu)\n",
                    compare_a.c_str(), observed.total(), observed.distinct());
        std::printf("expected: %s (total=%.17g distinct=%zu)\n",
                    compare_b.c_str(), expected.total(), expected.distinct());
        std::printf("kl_divergence    = %.17g\n", c.kl_divergence);
        std::printf("chi_squared_cost = %.17g\n", c.chi_squared_cost);
        std::printf("poisson_log_cost = %.17g\n", c.poisson_log_cost);
        std::printf("total_variation  = %.17g\n", c.total_variation);
        std::printf("exact match: %s\n", c.exact_match() ? "yes" : "no");
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    return 0;
  }
  if (!emit_dataset_path.empty() && qec_code.empty())
    reject(argv[0],
           "--emit-dataset requires --qec (use --binary for the demo "
           "workloads)");
  // QEC-mode names fail fast too (the builders own the name lists).
  if (!qec_code.empty()) {
    if (!circuit_path.empty())
      reject(argv[0], "--qec and --circuit are mutually exclusive");
    if (qec_code != "repetition" && qec_code != "surface" &&
        qec_code != "steane")
      reject(argv[0], "unknown code '" + qec_code +
                          "'; known codes: repetition surface steane");
    if (qec_decoder != "lookup" && qec_decoder != "union-find" &&
        qec_decoder != "st-union-find")
      reject(argv[0],
             "unknown decoder '" + qec_decoder +
                 "'; known decoders: lookup union-find st-union-find");
    try {
      (void)qec::basis_from_string(qec_basis);
    } catch (const std::exception& e) {
      reject(argv[0], e.what());
    }
  }
  // --qec mode: build the memory workload, run it through the very same
  // pipeline flags, decode, and report the logical error rate.
  if (!qec_code.empty()) {
    try {
      qec::MemoryWorkloadConfig qcfg;
      qcfg.code = qec_code;
      qcfg.distance = qec_distance;
      qcfg.rounds = qec_rounds;
      qcfg.basis = qec::basis_from_string(qec_basis);
      qcfg.noise = noise_p;
      const qec::MemoryWorkload workload = qec::make_memory_workload(qcfg);

      if (!emit_ptq_path.empty()) {
        const std::string text = workload.to_ptq();
        std::FILE* f = std::fopen(emit_ptq_path.c_str(), "wb");
        if (f == nullptr) {
          std::fprintf(stderr, "error: cannot write %s\n",
                       emit_ptq_path.c_str());
          return 1;
        }
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
        std::printf("wrote %s (servable .ptq job spec)\n",
                    emit_ptq_path.c_str());
      }

      const auto decoder =
          qec::make_shot_decoder(qec_decoder, workload.experiment);
      // Clifford + Pauli-mixture workloads default to the stabilizer
      // backend; an explicit --backend still wins.
      const std::string qec_backend = backend_explicit ? backend : "stabilizer";
      BackendConfig backend_cfg;
      backend_cfg.fuse_gates = fuse;
      const RunResult run = Pipeline(workload.noisy)
                                .strategy(strategy, cfg)
                                .backend(qec_backend, backend_cfg)
                                .schedule(be::schedule_from_string(schedule))
                                .threads(threads)
                                .seed(seed)
                                .run();
      qec::LogicalErrorAccumulator acc(*decoder, run.weighting);
      acc.consume(run.result);

      std::printf(
          "pipeline: strategy=%s backend=%s schedule=%s fuse=%d "
          "threads=%zu seed=%llu\n",
          run.strategy.c_str(), run.backend.c_str(), schedule.c_str(),
          fuse ? 1 : 0, threads,
          static_cast<unsigned long long>(seed));
      std::printf(
          "qec: code=%s distance=%u rounds=%u basis=%s decoder=%s "
          "noise=%g readout=%g qubits=%u\n",
          qcfg.code.c_str(), qcfg.distance, qcfg.rounds,
          qec::to_string(qcfg.basis).c_str(), decoder->name().c_str(),
          qcfg.noise, qcfg.effective_readout_noise(),
          workload.noisy.num_qubits());
      std::printf("specs=%zu shots=%llu prep=%.3fs sample=%.3fs\n",
                  run.num_specs,
                  static_cast<unsigned long long>(run.result.total_shots()),
                  run.result.prepare_seconds, run.result.sample_seconds);
      const qec::WilsonInterval ci = acc.wilson();
      std::printf(
          "logical error rate = %.6e (95%% CI %.3e..%.3e), failures "
          "%llu/%llu, effective shots %.1f\n",
          acc.logical_error_rate(), ci.lower, ci.upper,
          static_cast<unsigned long long>(acc.failures()),
          static_cast<unsigned long long>(acc.shots()),
          acc.effective_shots());

      if (!csv_path.empty()) {
        run.to_csv(csv_path);
        std::printf("wrote %s\n", csv_path.c_str());
      }
      if (!binary_path.empty()) {
        run.to_binary(binary_path);
        std::printf("wrote %s\n", binary_path.c_str());
      }
      if (!emit_dataset_path.empty()) {
        run.to_binary(emit_dataset_path);
        std::printf("wrote %s (compare-ready PTSB shard)\n",
                    emit_dataset_path.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    return 0;
  }

  // --circuit is validated up front too: an unreadable or malformed file
  // fails fast with usage + exit 2 (the ParseError message carries the
  // offending path:line:column), before any state is allocated.
  std::optional<NoisyCircuit> loaded;
  if (!circuit_path.empty()) {
    try {
      loaded.emplace(io::parse_circuit_file(circuit_path));
    } catch (const std::exception& e) {
      reject(argv[0], e.what());
    }
  }

  try {
    // The workload: a .ptq file when given, the GHZ demo otherwise
    // (constructed inside the try: bad --qubits/--noise values surface on
    // the same friendly error path as bad names).
    NoisyCircuit program = loaded ? std::move(*loaded) : [&] {
      Circuit circuit(qubits);
      circuit.h(0);
      for (unsigned q = 0; q + 1 < qubits; ++q) circuit.cx(q, q + 1);
      circuit.measure_all();
      NoiseModel noise;
      noise.add_all_gate_noise(channels::depolarizing(noise_p));
      noise.add_measurement_noise(channels::bit_flip(noise_p / 2));
      return noise.apply(circuit);
    }();
    // Record width: bits of measured qubits (program order), or all qubits
    // when the circuit has no measure ops (full basis-state records).
    const std::size_t measured = program.circuit().measured_qubits().size();
    const std::size_t record_bits =
        measured != 0 ? measured : program.num_qubits();

    BackendConfig backend_cfg;
    backend_cfg.fuse_gates = fuse;
    const RunResult run = Pipeline(std::move(program))
                              .strategy(strategy, cfg)
                              .backend(backend, backend_cfg)
                              .schedule(be::schedule_from_string(schedule))
                              .threads(threads)
                              .seed(seed)
                              .run();

    std::printf(
        "pipeline: strategy=%s backend=%s schedule=%s fuse=%d threads=%zu "
        "seed=%llu\n",
        run.strategy.c_str(), run.backend.c_str(), schedule.c_str(),
        fuse ? 1 : 0, threads,
        static_cast<unsigned long long>(seed));
    std::printf("specs=%zu shots=%llu prep=%.3fs sample=%.3fs\n", run.num_specs,
                static_cast<unsigned long long>(run.result.total_shots()),
                run.result.prepare_seconds, run.result.sample_seconds);

    const std::uint64_t mask =
        (record_bits >= 64) ? ~0ULL : (1ULL << record_bits) - 1;
    const be::Estimate parity = run.estimate_z_parity(mask);
    const be::Estimate p_zero =
        run.estimate_probability([](std::uint64_t r) { return r == 0; });
    std::printf("<Z...Z>        = %+.4f +/- %.4f (weight %.3e)\n", parity.value,
                parity.std_error, parity.total_weight);
    std::printf("P(all zeros)   = %+.4f +/- %.4f\n", p_zero.value,
                p_zero.std_error);

    if (!csv_path.empty()) {
      run.to_csv(csv_path);
      std::printf("wrote %s\n", csv_path.c_str());
    }
    if (!binary_path.empty()) {
      run.to_binary(binary_path);
      std::printf("wrote %s\n", binary_path.c_str());
    }
  } catch (const std::exception& e) {
    // Unknown registry names land here with a message listing what exists.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

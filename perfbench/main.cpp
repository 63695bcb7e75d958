// Repository benchmark driver.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--toy] [--out-dir <dir>]
//
// Workloads: dataset-prep-bound, dataset-shot-bound, serve-small-jobs (see
// METRICS.md). Prints a host/run record line, then as the last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced (--trace 0), the per-layer metrics traced (--trace 1).
// Exits 1 when an output check fails, 2 on bad arguments.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include <unistd.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "ptsbe/kernels/kernel_set.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Report;
using perfbench::Settings;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int omp_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<dataset-prep-bound|dataset-shot-bound|serve-small-jobs> "
               "--seed <n> --seconds <s> --trace <0|1> [--toy] "
               "[--out-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Settings settings;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--toy") {
      settings.toy = true;
    } else if (arg == "--workload" && has_value) {
      settings.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      settings.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      settings.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      settings.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out-dir" && has_value) {
      settings.out_dir = argv[++i];
    } else {
      return usage(("bad argument '" + arg + "'").c_str());
    }
  }
  const bool dataset = settings.workload == "dataset-prep-bound" ||
                       settings.workload == "dataset-shot-bound";
  if (!dataset && settings.workload != "serve-small-jobs")
    return usage("unknown workload");

  // Thread budget: executor threads x OpenMP threads <= cores. The
  // statevector reductions are OpenMP-parallel, and executor workers are
  // plain std::threads that take their team size from the environment, not
  // from omp_set_num_threads on this thread. So pin it there, before the
  // OpenMP runtime starts: re-execute once with OMP_NUM_THREADS=1.
  const char* omp_env = std::getenv("OMP_NUM_THREADS");
  if (omp_env == nullptr || std::strcmp(omp_env, "1") != 0) {
    setenv("OMP_NUM_THREADS", "1", 1);
    execv("/proc/self/exe", argv);
    std::fprintf(stderr, "perfbench_driver: cannot re-execute with "
                         "OMP_NUM_THREADS=1; set it and run again\n");
    return 2;
  }
  settings.threads = std::max(1u, std::thread::hardware_concurrency());
  std::filesystem::create_directories(settings.out_dir);

  perfbench::Tracer tracer(false);
  Report report;
  try {
    if (dataset)
      perfbench::run_dataset_workload(settings, report, tracer);
    else
      perfbench::run_serve_workload(settings, report, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s failed: %s\n",
                 settings.workload.c_str(), e.what());
    return 1;
  }
  for (const auto& [name, m] : report.metrics)
    report.check("metric_finite", std::isfinite(m.value), name);

  std::string trace_file;
  if (settings.trace) {
    trace_file = settings.out_dir + "/trace-" + settings.workload + "-" +
                 std::to_string(settings.seed) + ".jsonl";
    tracer.write_jsonl(trace_file);
  }

  // Host and run record.
  std::string record = "{\"host\": {\"nproc\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"kernel_dispatch\": " +
                       json_string(ptsbe::kernels::describe_dispatch()) +
                       ", \"compiler\": " + json_string(compiler()) +
                       ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                       ", \"executor_threads\": " +
                       std::to_string(settings.threads) +
                       ", \"omp_threads\": " + std::to_string(omp_threads()) +
                       "}, \"run\": {\"workload\": " +
                       json_string(settings.workload) +
                       ", \"seed\": " + std::to_string(settings.seed) +
                       ", \"seconds\": " + json_number(settings.seconds) +
                       ", \"trace\": " + (settings.trace ? "1" : "0") +
                       ", \"toy\": " + (settings.toy ? "true" : "false") +
                       ", \"trace_file\": " + json_string(trace_file) + "}";
  record += ", \"checks\": {";
  const char* sep = "";
  for (const auto& [name, ok] : report.checks) {
    record += sep + json_string(name) + ": " + (ok ? "true" : "false");
    sep = ", ";
  }
  record += "}, \"info\": {";
  sep = "";
  for (const auto& [key, value] : report.info) {
    record += sep + json_string(key) + ": " + json_string(value);
    sep = ", ";
  }
  std::printf("%s}}\n", record.c_str());

  // Result: the last line of standard output.
  std::string result = std::string("{\"correct\": ") +
                       (report.correct() ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(report.attempted) +
                       ", \"failed\": " + std::to_string(report.failed) +
                       ", \"metrics\": {";
  sep = "";
  for (const auto& [name, m] : report.metrics) {
    result += sep + json_string(name) + ": {\"value\": " +
              json_number(std::isfinite(m.value) ? m.value : 0.0) +
              ", \"unit\": " + json_string(m.unit) + "}";
    sep = ", ";
  }
  std::printf("%s}}\n", result.c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

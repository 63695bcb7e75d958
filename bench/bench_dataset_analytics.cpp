// Out-of-core dataset analytics throughput: k-way shard merge + ShotTable
// comparison (ptsbe::stats) over the shards of a QEC memory workload.
//
// Phase 1 — QEC shards: one local Pipeline run of a surface-code memory
// experiment is partitioned round-robin into N spec-ordered shard files
// (the shape sharded serve runs and partitioned QEC sweeps produce). The
// timed section k-way-merges the shards under a *fixed memory budget* and
// tabulate+compares the merged file against the single-process dataset;
// the merge must reproduce the local `write_binary` bytes exactly and the
// comparison must report an exact match (all four distances 0.0) — the
// bench exits nonzero otherwise, so the smoke ctest re-verifies both.
//
// Phase 2 — wire shards: the same QEC job is submitted to two daemon
// processes' worth of `net::Server`s; daemon A contributes the
// even-spec_index batches and daemon B the odd ones — two genuinely
// cross-process shard files whose merge must again be byte-identical to
// the local dataset (the determinism contract, end to end through TCP,
// sharding and the out-of-core merge).
//
//   bench_dataset_analytics [output.json] [--tiny]   (JSON only to a given path)

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ptsbe/common/timer.hpp"
#include "ptsbe/core/dataset.hpp"
#include "ptsbe/core/pipeline.hpp"
#include "ptsbe/io/ptq.hpp"
#include "ptsbe/net/client.hpp"
#include "ptsbe/net/server.hpp"
#include "ptsbe/qec/workload.hpp"
#include "ptsbe/stats/compare.hpp"
#include "ptsbe/stats/merge.hpp"
#include "ptsbe/stats/shot_table.hpp"
#include "report.hpp"

namespace {

using namespace ptsbe;

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Round-robin partition of a spec-ordered result into `count` shard
/// files. Each shard stays spec-ordered (ascending subsequence), which is
/// the k-way merge's input contract.
std::vector<std::string> write_shards(const RunResult& run,
                                      std::size_t count) {
  std::vector<std::unique_ptr<dataset::StreamWriter>> writers;
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < count; ++s) {
    paths.push_back(
        bench::temp_path("qec_shard_" + std::to_string(s) + ".bin"));
    writers.push_back(std::make_unique<dataset::StreamWriter>(paths.back()));
  }
  for (std::size_t i = 0; i < run.result.batches.size(); ++i)
    writers[i % count]->append(run.result.batches[i]);
  for (auto& w : writers) w->close();
  return paths;
}

struct Throughput {
  double seconds = 0.0;
  double records_per_sec = 0.0;
  double mib_per_sec = 0.0;
};

Throughput rate(double seconds, std::uint64_t records, std::uint64_t bytes) {
  Throughput t;
  t.seconds = seconds;
  if (seconds > 0.0) {
    t.records_per_sec = static_cast<double>(records) / seconds;
    t.mib_per_sec =
        static_cast<double>(bytes) / (1024.0 * 1024.0) / seconds;
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const bool tiny = args.tiny;

  const std::size_t shard_count = tiny ? 3 : 4;
  const std::size_t merge_reps = tiny ? 1 : 5;
  const std::uint64_t memory_budget = 8ULL << 20;  // fixed: 8 MiB
  const std::size_t nsamples = tiny ? 60 : 1500;
  const std::uint64_t nshots = tiny ? 10 : 100;
  const std::uint64_t seed = 20260807;

  qec::MemoryWorkloadConfig qcfg;
  qcfg.code = "surface";
  qcfg.distance = 3;
  qcfg.rounds = tiny ? 1 : 2;
  qcfg.noise = 0.01;
  const qec::MemoryWorkload workload = qec::make_memory_workload(qcfg);

  pts::StrategyConfig scfg;
  scfg.nsamples = nsamples;
  scfg.nshots = nshots;

  // Phase 1: the single-process reference dataset and its shards.
  const RunResult local = Pipeline(workload.noisy)
                              .strategy("probabilistic", scfg)
                              .backend("stabilizer", {})
                              .seed(seed)
                              .run();
  const std::string local_path = bench::temp_path("qec_local.bin");
  local.to_binary(local_path);
  const std::string local_bytes = slurp(local_path);
  const std::vector<std::string> shards = write_shards(local, shard_count);

  std::printf(
      "dataset analytics (%s d=%u r=%u, %zu specs -> %zu shards, "
      "budget %llu bytes)\n\n",
      qcfg.code.c_str(), qcfg.distance, qcfg.rounds, local.num_specs,
      shard_count, static_cast<unsigned long long>(memory_budget));

  // Timed merge: k-way under the fixed budget, repeated for a stable rate.
  const std::string merged_path = bench::temp_path("qec_merged.bin");
  stats::MergeOptions mopts;
  mopts.memory_budget_bytes = memory_budget;
  stats::MergeReport report;
  WallTimer merge_timer;
  for (std::size_t r = 0; r < merge_reps; ++r)
    report = stats::merge_datasets(merged_path, shards, mopts);
  const Throughput merge_rate = rate(merge_timer.seconds() / merge_reps,
                                     report.records, report.bytes_out);

  const bool merge_identical = slurp(merged_path) == local_bytes;
  std::printf("merge:   %zu shards, %llu batches, %llu records  %7.4fs  "
              "%10.0f rec/s  %7.1f MiB/s  peak buffered %llu  ->  %s\n",
              shard_count, static_cast<unsigned long long>(report.batches),
              static_cast<unsigned long long>(report.records),
              merge_rate.seconds, merge_rate.records_per_sec,
              merge_rate.mib_per_sec,
              static_cast<unsigned long long>(report.peak_buffered_bytes),
              merge_identical ? "byte-identical to local" : "DIVERGED");

  // Timed compare: tabulate both files out-of-core, all four distances.
  WallTimer compare_timer;
  const stats::ShotTable observed = stats::table_of_file(merged_path);
  const stats::ShotTable expected = stats::table_of_file(local_path);
  const stats::Comparison comparison = stats::compare(observed, expected);
  const Throughput compare_rate =
      rate(compare_timer.seconds(), 2 * report.records,
           2 * report.bytes_out);
  std::printf("compare: %7.4fs  %10.0f rec/s  %7.1f MiB/s  ->  %s\n",
              compare_rate.seconds, compare_rate.records_per_sec,
              compare_rate.mib_per_sec,
              comparison.exact_match() ? "exact match" : "DIVERGED");

  // Phase 2: the same job through two daemons; even batches from A, odd
  // from B — cross-process shards whose merge must equal the local bytes.
  serve::JobRequest req;
  req.circuit_text = workload.to_ptq();
  req.backend = "stabilizer";
  req.strategy_config = scfg;
  req.seed = seed;
  req.tenant = "bench-analytics";
  net::Server daemon_a{{}};
  net::Server daemon_b{{}};
  net::ShardedClient client_a({daemon_a.endpoint()});
  net::ShardedClient client_b({daemon_b.endpoint()});
  const RunResult run_a = client_a.submit(req).run;
  const RunResult run_b = client_b.submit(req).run;
  daemon_a.stop();
  daemon_b.stop();

  const std::string wire_even = bench::temp_path("wire_even.bin");
  const std::string wire_odd = bench::temp_path("wire_odd.bin");
  {
    dataset::StreamWriter even(wire_even);
    dataset::StreamWriter odd(wire_odd);
    for (const be::TrajectoryBatch& batch : run_a.result.batches)
      if (batch.spec_index % 2 == 0) even.append(batch);
    for (const be::TrajectoryBatch& batch : run_b.result.batches)
      if (batch.spec_index % 2 == 1) odd.append(batch);
    even.close();
    odd.close();
  }
  const std::string wire_merged = bench::temp_path("wire_merged.bin");
  (void)stats::merge_datasets(wire_merged, {wire_even, wire_odd}, mopts);
  const bool wire_identical = slurp(wire_merged) == local_bytes;
  std::printf("2-daemon wire shards merged vs local dataset bytes: %s\n",
              wire_identical ? "identical" : "DIVERGED");

  for (const std::string& p : shards) std::remove(p.c_str());
  for (const std::string& p :
       {local_path, merged_path, wire_even, wire_odd, wire_merged})
    std::remove(p.c_str());

  const int status =
      (merge_identical && comparison.exact_match() && wire_identical) ? 0 : 1;
  const bool written =
      bench::report("dataset_analytics", 1)
          .add("workload", bench::Object()
                               .add("code", qcfg.code)
                               .add("distance", qcfg.distance)
                               .add("rounds", qcfg.rounds)
                               .add("nsamples", nsamples)
                               .add("nshots", nshots)
                               .add("specs", local.num_specs))
          .add("shards", shard_count)
          .add("memory_budget_bytes", memory_budget)
          .add("merge",
               bench::Object()
                   .add("batches", report.batches)
                   .add("records", report.records)
                   .add("bytes_out", report.bytes_out)
                   .add("peak_buffered_bytes", report.peak_buffered_bytes)
                   .add("seconds", merge_rate.seconds)
                   .add("records_per_sec", merge_rate.records_per_sec)
                   .add("mib_per_sec", merge_rate.mib_per_sec)
                   .add("byte_identical_to_local", merge_identical))
          .add("compare",
               bench::Object()
                   .add("seconds", compare_rate.seconds)
                   .add("records_per_sec", compare_rate.records_per_sec)
                   .add("mib_per_sec", compare_rate.mib_per_sec)
                   .add("kl_divergence", comparison.kl_divergence)
                   .add("chi_squared_cost", comparison.chi_squared_cost)
                   .add("poisson_log_cost", comparison.poisson_log_cost)
                   .add("total_variation", comparison.total_variation)
                   .add("exact_match", comparison.exact_match()))
          .add("wire_shards", bench::Object()
                                  .add("daemons", 2)
                                  .add("merge_byte_identical_to_local",
                                       wire_identical))
          .add("note",
               "merge is the out-of-core k-way merge over spec-ordered "
               "shards under the fixed budget; compare tabulates both files "
               "via the seekable reader and evaluates all four "
               "BranchTab-style distances; exact_match means every distance "
               "is exactly 0")
          .write(args.out);
  return written ? status : 1;
}

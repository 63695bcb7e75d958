// The paper's results measured on this host in one run, one JSON section
// each: `headline` (PTS-BE over Algorithm 1 against shots per trajectory),
// `fig4`, `fig5`, `fig5_inset`, `dataset_cost` (§4's corpora at this host's
// rates) and `ablation_unitary_mixture` (§2.2). docs/architecture.md maps
// each section to the paper; workloads.hpp explains the scaled workloads.
//
// Every number comes from a leg: one measurement repeated until its calls
// add up to a fixed time floor and number at least 3, reported by its
// median call (a call the host preempts moves a mean, not the median). An
// Algorithm-1 leg runs one trajectory (one shot) per call, so its rate does
// not depend on a row's shots per trajectory. Rows that coincide across
// sections share their leg.
//
//   bench_paper [out.json] [--tiny]
//
// --tiny shrinks the workloads, the maxima and the floor for the ctest
// smoke. Exits nonzero if a thread count changes the inset's records.

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "ptsbe/common/timer.hpp"
#include "ptsbe/core/batched_execution.hpp"
#include "ptsbe/core/dataset.hpp"
#include "ptsbe/core/pts.hpp"
#include "ptsbe/tensornet/mps.hpp"
#include "ptsbe/trajectory/trajectory.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

using namespace ptsbe;
using bench::Object;

constexpr double kFloorSeconds = 1.0;
constexpr double kTinyFloorSeconds = 0.01;

/// One leg's calls: how many, their total time and the median call.
struct Leg {
  std::size_t calls = 0;
  double seconds = 0.0;
  std::size_t median = 0;  ///< index of the median call
  double median_seconds = 0.0;
};

/// Repeats `call`, which returns the seconds it timed, until the calls add
/// up to `floor` and number at least 3.
template <typename Call>
Leg repeat(double floor, const Call& call) {
  std::vector<double> seconds;
  Leg leg;
  while (seconds.size() < 3 || leg.seconds < floor) {
    seconds.push_back(call());
    leg.seconds += seconds.back();
  }
  std::vector<double> sorted = seconds;
  const auto mid = sorted.begin() + static_cast<long>(sorted.size() / 2);
  std::nth_element(sorted.begin(), mid, sorted.end());
  leg.calls = seconds.size();
  leg.median_seconds = *mid;
  leg.median = static_cast<std::size_t>(
      std::find(seconds.begin(), seconds.end(), *mid) - seconds.begin());
  return leg;
}

/// A leg of `be::execute` calls on one spec set.
struct BeLeg {
  Leg leg;
  std::uint64_t shots = 0;  ///< per call
  double prepare_seconds = 0.0;  ///< the median call's split
  double sample_seconds = 0.0;
  double unique_fraction = 0.0;
  [[nodiscard]] double shots_per_s() const {
    return static_cast<double>(shots) / leg.median_seconds;
  }
};

/// Every call draws the same records (one seed), so the first call's
/// batches stand for all; they are moved to `batches` when it is given.
BeLeg be_leg(const NoisyCircuit& noisy,
             const std::vector<TrajectorySpec>& specs,
             const be::Options& exec, double floor,
             std::vector<be::TrajectoryBatch>* batches = nullptr) {
  BeLeg out;
  std::vector<std::pair<double, double>> split;
  out.leg = repeat(floor, [&] {
    WallTimer timer;
    be::Result result = be::execute(noisy, specs, exec);
    const double seconds = timer.seconds();
    split.emplace_back(result.prepare_seconds, result.sample_seconds);
    if (split.size() == 1) {
      out.shots = result.total_shots();
      out.unique_fraction = result.unique_shot_fraction();
      if (batches != nullptr) *batches = std::move(result.batches);
    }
    return seconds;
  });
  std::tie(out.prepare_seconds, out.sample_seconds) = split[out.leg.median];
  return out;
}

/// Algorithm 1, one trajectory (one shot) per call.
struct Algorithm1Leg {
  Leg leg;
  std::size_t expectation_evaluations = 0;  ///< over all calls
  [[nodiscard]] double shots_per_s() const { return 1.0 / leg.median_seconds; }
};

MpsConfig mps_config() {
  MpsConfig cfg;
  cfg.max_bond = 64;
  return cfg;
}

Algorithm1Leg algorithm1_leg(const NoisyCircuit& noisy, bool mps,
                             const traj::Options& options, double floor) {
  RngStream rng(41);
  Algorithm1Leg out;
  out.leg = repeat(floor, [&] {
    WallTimer timer;
    const traj::Result result =
        mps ? traj::run_mps(noisy, 1, rng, mps_config(), options)
            : traj::run_statevector(noisy, 1, rng, options);
    const double seconds = timer.seconds();
    out.expectation_evaluations += result.stats.expectation_evaluations;
    return seconds;
  });
  return out;
}

/// A PTS-BE workload: its spec set is sampled once, and a row sets every
/// spec's shots. Legs are kept by shot count, so rows that coincide across
/// sections are measured once.
struct Workload {
  Workload(std::string name, NoisyCircuit circuit, bool on_mps,
           std::size_t trajectories, std::uint64_t seed, double floor_seconds)
      : label(std::move(name)),
        noisy(std::move(circuit)),
        mps(on_mps),
        floor(floor_seconds) {
    RngStream rng(seed);
    pts::Options opt;
    opt.nsamples = trajectories;
    opt.merge_duplicates = true;
    specs = pts::sample_probabilistic(noisy, opt, rng);
    if (mps) {
      exec.backend = "mps";
      exec.config.mps = mps_config();
    }
  }

  const BeLeg& leg(std::uint64_t shots) {
    const auto found = legs.find(shots);
    if (found != legs.end()) return found->second;
    std::vector<TrajectorySpec> batch = specs;
    for (TrajectorySpec& spec : batch) spec.shots = shots;
    return legs.emplace(shots, be_leg(noisy, batch, exec, floor))
        .first->second;
  }

  std::string label;
  NoisyCircuit noisy;
  bool mps;
  double floor;
  std::vector<TrajectorySpec> specs;
  be::Options exec;
  std::map<std::uint64_t, BeLeg> legs;
};

Object& add_leg(Object& row, const std::string& prefix, const Leg& leg) {
  return row.add(prefix + "calls", leg.calls)
      .add(prefix + "leg_seconds", leg.seconds);
}

Object& add_be_leg(Object& row, const std::string& prefix, const BeLeg& leg) {
  row.add(prefix + "shots_per_s", leg.shots_per_s())
      .add(prefix + "prepare_seconds", leg.prepare_seconds)
      .add(prefix + "sample_seconds", leg.sample_seconds)
      .add(prefix + "unique_fraction", leg.unique_fraction);
  return add_leg(row, prefix, leg.leg);
}

std::vector<Object> headline(
    const std::vector<std::pair<Workload*, std::uint64_t>>& sweeps) {
  std::vector<Object> rows;
  for (const auto& [w, max_shots] : sweeps) {
    const Algorithm1Leg base = algorithm1_leg(w->noisy, w->mps, {}, w->floor);
    for (std::uint64_t shots = 1; shots <= max_shots; shots *= 10) {
      const BeLeg& leg = w->leg(shots);
      Object row;
      row.add("workload", w->label)
          .add("shots_per_trajectory", shots)
          .add("specs", w->specs.size())
          .add("speedup", leg.shots_per_s() / base.shots_per_s())
          .add("algorithm1_shots_per_s", base.shots_per_s());
      add_leg(row, "algorithm1_", base.leg);
      rows.push_back(add_be_leg(row, "ptsbe_", leg));
    }
  }
  return rows;
}

std::vector<Object> fig4(
    const std::vector<std::pair<Workload*, std::uint64_t>>& sweeps) {
  std::vector<Object> rows;
  for (const auto& [w, max_shots] : sweeps) {
    const double rate_at_1 = w->leg(1).shots_per_s();
    for (std::uint64_t shots = 1; shots <= max_shots; shots *= 10) {
      const BeLeg& leg = w->leg(shots);
      Object row;
      row.add("workload", w->label)
          .add("qubits", w->noisy.num_qubits())
          .add("shots_per_batch", shots)
          .add("specs", w->specs.size())
          .add("speedup_vs_1", leg.shots_per_s() / rate_at_1)
          .add("prepare_fraction",
               leg.prepare_seconds /
                   (leg.prepare_seconds + leg.sample_seconds));
      rows.push_back(add_be_leg(row, "", leg));
    }
  }
  return rows;
}

/// Fig. 5 on the encoded preparation circuits (coherent: an error-free
/// trajectory keeps the columns comparable). Traditional pays one
/// preparation and one draw per shot; uncached pays one preparation per
/// batch and a full-chain canonicalisation per shot; cached canonicalises
/// once per batch.
std::vector<Object> fig5(std::uint64_t max_shots, double floor) {
  std::vector<Object> rows;
  MpsConfig cfg = mps_config();
  cfg.truncation_error = 1e-10;
  for (const auto& [label, code] :
       {std::pair{"MSD preparation, 5 x Steane (35 qubits)", qec::steane()},
        std::pair{"MSD preparation, 5 x [[25,1,5]] (125 qubits)",
                  qec::rotated_surface_code(5)}}) {
    const Circuit circuit = qec::msd_preparation_circuit(code);
    // Records hold the first 64 qubits; the sampler still draws every qubit
    // of the chain, so the timings cover the whole 125-qubit block.
    std::vector<unsigned> recorded(std::min(circuit.num_qubits(), 64u));
    std::iota(recorded.begin(), recorded.end(), 0u);
    const auto prepare = [&] {
      MpsState mps(circuit.num_qubits(), cfg);
      mps.apply_circuit(circuit);
      return mps;
    };
    RngStream rng(21);
    const Leg preparation = repeat(floor, [&] {
      WallTimer timer;
      const MpsState mps = prepare();
      return timer.seconds();
    });
    MpsState state = prepare();
    const Leg uncached = repeat(floor, [&] {
      WallTimer timer;
      (void)state.sample_one_uncached(rng, recorded);
      return timer.seconds();
    });
    const double prep = preparation.median_seconds;
    double traditional = 0.0;
    for (std::uint64_t shots = 1; shots <= max_shots; shots *= 10) {
      const Leg cached = repeat(floor, [&] {
        WallTimer timer;
        (void)state.sample_records(shots, rng, recorded);
        return timer.seconds();
      });
      const double n = static_cast<double>(shots);
      if (shots == 1) traditional = 60.0 / (prep + cached.median_seconds);
      const double uncached_rate =
          60.0 * n / (prep + n * uncached.median_seconds);
      const double cached_rate = 60.0 * n / (prep + cached.median_seconds);
      Object row;
      row.add("workload", label)
          .add("qubits", circuit.num_qubits())
          .add("chi_max", state.max_bond_dim())
          .add("shots", shots)
          .add("traditional_per_min", traditional)
          .add("uncached_per_min", uncached_rate)
          .add("cached_per_min", cached_rate)
          .add("gain_uncached", uncached_rate / traditional)
          .add("gain_cached", cached_rate / traditional)
          .add("cached_over_uncached",
               n * uncached.median_seconds / cached.median_seconds);
      add_leg(row, "prepare_", preparation);
      add_leg(row, "uncached_", uncached);
      rows.push_back(add_leg(row, "cached_", cached));
    }
  }
  return rows;
}

/// One inset curve: the same specs at each thread count, with the records
/// checked against threads 1. Returns false if any differ.
bool inset_rows(const char* scaling, const std::string& label,
                const NoisyCircuit& noisy,
                const std::vector<TrajectorySpec>& specs, be::Options exec,
                double floor, std::vector<Object>& rows) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::vector<be::TrajectoryBatch> reference;
  double t1 = 0.0;
  bool all_identical = true;
  for (const unsigned threads : {1u, 2u, 4u}) {
    if (threads > nproc) break;
    exec.threads = threads;
    std::vector<be::TrajectoryBatch> batches;
    const BeLeg leg = be_leg(noisy, specs, exec, floor, &batches);
    if (threads == 1) {
      t1 = leg.leg.median_seconds;
      reference = batches;
    }
    bool identical = batches.size() == reference.size();
    for (std::size_t i = 0; identical && i < batches.size(); ++i)
      identical = batches[i].records == reference[i].records;
    all_identical = all_identical && identical;
    Object row;
    row.add("scaling", scaling)
        .add("workload", label)
        .add("threads", threads)
        .add("median_seconds", leg.leg.median_seconds)
        .add("speedup", t1 / leg.leg.median_seconds)
        .add("identical", identical);
    rows.push_back(add_be_leg(row, "", leg));
  }
  return all_identical;
}

/// intra: one error-free spec, large enough that its preparation splits
/// (more than 2^14 amplitudes). inter: independent MPS trajectories.
std::vector<Object> fig5_inset(bool tiny, const be::Options& mps_exec,
                               double floor, bool& identical) {
  std::vector<Object> rows;
  const unsigned qubits = tiny ? 15 : 20;
  std::vector<TrajectorySpec> one(1);
  one[0].shots = 1000;
  identical = inset_rows(
      "intra",
      std::to_string(qubits) + "-qubit surrogate, one error-free spec",
      bench::surrogate_circuit(qubits, 12, 0.002), one, {}, floor, rows);
  const std::size_t trajectories = tiny ? 4 : 16;
  RngStream rng(31);
  pts::Options opt;
  opt.nsamples = trajectories;
  opt.nshots = tiny ? 20 : 200;
  opt.merge_duplicates = true;
  const NoisyCircuit noisy =
      bench::noisy_msd_preparation(qec::steane(), 0.002);
  const std::string label = "35-qubit MSD preparation, " +
                            std::to_string(trajectories) + " MPS trajectories";
  identical = inset_rows("inter", label, noisy,
                         pts::sample_probabilistic(noisy, opt, rng), mps_exec,
                         floor, rows) &&
              identical;
  return rows;
}

/// The paper's corpora at the headline's rates, each at the paper's shots
/// per trajectory or the largest the headline has, and the dataset writer
/// on one bare-MSD result, one file per call.
std::vector<Object> dataset_cost(Workload& msd, std::uint64_t msd_shots,
                                 Workload& mps, std::uint64_t mps_shots,
                                 std::uint64_t writer_shots, double floor) {
  std::vector<Object> rows;
  for (const auto& [label, corpus, w, shots] :
       {std::tuple{"statevector MSD (1e12-shot corpus)", 1e12, &msd, msd_shots},
        std::tuple{"tensor-net MSD prep (1e6-shot corpus)", 1e6, &mps,
                   mps_shots}}) {
    const double rate = w->leg(shots).shots_per_s();
    const double seconds = corpus / rate;
    std::printf("%-40s %9.3g s %9.3g h\n", label, seconds, seconds / 3600.0);
    rows.push_back(Object()
                       .add("workload", label)
                       .add("shots_per_trajectory", shots)
                       .add("shots_per_s", rate)
                       .add("corpus_shots", corpus)
                       .add("corpus_seconds", seconds)
                       .add("corpus_hours", seconds / 3600.0));
  }
  std::vector<TrajectorySpec> specs = msd.specs;
  for (TrajectorySpec& spec : specs) spec.shots = writer_shots;
  const be::Result result = be::execute(msd.noisy, specs, msd.exec);
  const std::string path = bench::temp_path("paper_dataset.bin");
  std::uint64_t bytes = 0;
  const Leg leg = repeat(floor, [&] {
    WallTimer timer;
    dataset::StreamWriter writer(path);
    for (const be::TrajectoryBatch& batch : result.batches)
      writer.append(batch);
    writer.close();
    bytes = writer.bytes_written();
    return timer.seconds();
  });
  std::remove(path.c_str());
  const double total = static_cast<double>(result.total_shots());
  Object row;
  row.add("workload", "dataset::StreamWriter, bare MSD")
      .add("shots", result.total_shots())
      .add("shots_per_s", total / leg.median_seconds)
      .add("bytes_per_shot", static_cast<double>(bytes) / total);
  rows.push_back(add_leg(row, "", leg));
  return rows;
}

std::vector<Object> ablation_unitary_mixture(bool tiny, double floor) {
  std::vector<Object> rows;
  for (const auto& [label, noisy] :
       {std::pair{"bare 5-qubit MSD", bench::noisy_bare_msd(0.02)},
        std::pair{tiny ? "8-qubit surrogate" : "14-qubit surrogate",
                  bench::surrogate_circuit(tiny ? 8 : 14, 12, 0.01)}}) {
    for (const bool fast : {true, false}) {
      traj::Options options;
      options.unitary_mixture_fast_path = fast;
      const Algorithm1Leg leg = algorithm1_leg(noisy, false, options, floor);
      Object row;
      row.add("workload", label)
          .add("fast_path", fast)
          .add("trajectories_per_s", leg.shots_per_s())
          .add("expectation_evaluations_per_trajectory",
               static_cast<double>(leg.expectation_evaluations) /
                   static_cast<double>(leg.leg.calls));
      rows.push_back(add_leg(row, "", leg.leg));
    }
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const bool tiny = args.tiny;
  const double floor = tiny ? kTinyFloorSeconds : kFloorSeconds;
  WallTimer total;

  // PTS seeds: 42 for the headline's workloads, 11 for Fig. 4's surrogate.
  const unsigned s16 = tiny ? 10 : 16, s18 = tiny ? 12 : 18;
  Workload msd("statevector: bare 5-qubit MSD", bench::noisy_bare_msd(0.01),
               false, 4, 42, floor);
  Workload surrogate16(
      "statevector: " + std::to_string(s16) + "-qubit surrogate",
      bench::surrogate_circuit(s16, 16, 0.005), false, 2, 42, floor);
  Workload mps("tensor network: 35-qubit MSD preparation",
               bench::noisy_msd_preparation(qec::steane(), 0.002), true, 2,
               42, floor);
  Workload surrogate18(
      "statevector: " + std::to_string(s18) + "-qubit surrogate",
      bench::surrogate_circuit(s18, 20, 0.005), false, 2, 11, floor);
  const std::uint64_t msd_max = tiny ? 100 : 100000;
  const std::uint64_t mps_max = tiny ? 10 : 1000;

  Object doc = bench::report("paper", 1);
  doc.add("time_floor_seconds", floor);
  const auto section = [&](const char* name, const auto& make_rows) {
    std::printf("\n== %s ==\n", name);
    const std::vector<Object> rows = make_rows();
    for (const Object& row : rows) std::printf("%s\n", row.line().c_str());
    doc.add(name, rows);
  };
  section("headline", [&] {
    return headline({{&msd, msd_max},
                     {&surrogate16, tiny ? 100 : 10000},
                     {&mps, mps_max}});
  });
  section("fig4", [&] {
    return fig4({{&msd, msd_max * 10}, {&surrogate18, tiny ? 100 : 100000}});
  });
  section("fig5", [&] { return fig5(mps_max, floor); });
  bool identical = true;
  section("fig5_inset",
          [&] { return fig5_inset(tiny, mps.exec, floor, identical); });
  section("dataset_cost", [&] {
    return dataset_cost(msd, msd_max, mps,
                        std::min<std::uint64_t>(100, mps_max),
                        tiny ? 100 : 50000, floor);
  });
  section("ablation_unitary_mixture",
          [&] { return ablation_unitary_mixture(tiny, floor); });

  doc.add("seconds_total", total.seconds());
  if (!doc.write(args.out)) return 1;
  if (!identical) {
    std::fprintf(stderr, "FAIL: the inset's records differ across threads\n");
    return 1;
  }
  return 0;
}

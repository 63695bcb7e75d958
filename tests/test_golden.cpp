// Records pinned across commits. Every other suite pins byte identity
// *within* a build: across threads, schedules, kernel sets, shards and the
// wire. This one pins it *across* commits: each case's spec indices,
// realised-probability bits and every record of every batch hash to one
// digest, which must equal the row of `tests/golden/digests.txt` for that
// case. Each case runs at executor threads {1, 4} × both schedules × every
// available kernel set (and, on the amplitude backends, with gate fusion
// off and on); all those runs must give the one digest.
//
// A deliberate record change (a different sampler, different fusion) shows
// as a diff of the table, made by re-running this suite with
// PTSBE_GOLDEN_UPDATE=1, which rewrites the table instead of checking it.
// The bits depend on libm (`std::log` in the exponentials, `sin`/`cos` of
// gate angles), so the table names the compiler and the libc it was made
// with, and a mismatch names both beside this build's.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ptsbe/common/inverse_cdf.hpp"
#include "ptsbe/core/pipeline.hpp"
#include "ptsbe/kernels/kernel_set.hpp"
#include "ptsbe/noise/channels.hpp"
#include "ptsbe/qec/distillation.hpp"

namespace ptsbe {
namespace {

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown compiler";
#endif
}

std::string libc() {
#if defined(__GLIBC__)
  return "glibc " + std::to_string(__GLIBC__) + "." +
         std::to_string(__GLIBC_MINOR__);
#else
  return "unknown libc";
#endif
}

/// Brickwork: `depth` layers of single-qubit rotations and CX/CZ pairs (the
/// perfbench surrogate's shape, at a fixed seed).
Circuit brickwork(unsigned n, unsigned depth, std::uint64_t seed) {
  RngStream rng(seed);
  Circuit c(n);
  for (unsigned d = 0; d < depth; ++d) {
    for (unsigned q = 0; q < n; ++q) {
      switch (rng.uniform_index(4)) {
        case 0: c.h(q); break;
        case 1: c.t(q); break;
        case 2: c.rx(q, rng.uniform(0, 3.1)); break;
        default: c.ry(q, rng.uniform(0, 3.1)); break;
      }
    }
    for (unsigned q = d % 2; q + 1 < n; q += 2)
      (d % 4 < 2) ? c.cx(q, q + 1) : c.cz(q, q + 1);
  }
  return c;
}

/// Depolarizing after every gate, and amplitude damping on readout when
/// `damping` is above 0.
NoisyCircuit depolarized(Circuit c, double p, double damping) {
  NoiseModel noise;
  noise.add_all_gate_noise(channels::depolarizing(p));
  if (damping > 0.0)
    noise.add_measurement_noise(channels::amplitude_damping(damping));
  return noise.apply(c);
}

NoisyCircuit bare_msd() {
  return depolarized(qec::bare_msd_circuit(), 0.01, 0.0);
}

NoisyCircuit brickwork12() {
  Circuit c = brickwork(12, 8, 12);
  c.measure_all();
  return depolarized(c, 0.01, 0.01);
}

/// Twelve qubits, five of them measured, out of index order.
NoisyCircuit partial12() {
  Circuit c = brickwork(12, 6, 5);
  for (unsigned q : {9u, 2u, 4u, 11u, 7u}) c.measure(q);
  return depolarized(c, 0.01, 0.0);
}

/// Sixteen qubits: four 2^14-amplitude slices, so a spec's preparation
/// splits across the executor's idle workers.
NoisyCircuit brickwork16() {
  Circuit c = brickwork(16, 4, 16);
  c.measure_all();
  return depolarized(c, 0.01, 0.01);
}

NoisyCircuit brickwork10() {
  Circuit c = brickwork(10, 10, 10);
  c.measure_all();
  return depolarized(c, 0.01, 0.0);
}

/// Amplitude damping after every gate and on readout: general-Kraus sites
/// everywhere, decays that fork inside runs of them, unrealizable specs.
NoisyCircuit damping_everywhere() {
  Circuit c = brickwork(10, 4, 28);
  c.measure_all();
  NoiseModel noise;
  noise.add_all_gate_noise(channels::amplitude_damping(0.05));
  noise.add_measurement_noise(channels::amplitude_damping(0.05));
  return noise.apply(c);
}

/// A two-qubit general Kraus channel (amplitude ⊗ phase damping) after
/// every CX and CZ, depolarizing after every gate, phase and amplitude
/// damping on readout.
NoisyCircuit kraus2q() {
  const ChannelPtr ad = channels::amplitude_damping(0.05);
  const ChannelPtr pd = channels::phase_damping(0.05);
  std::vector<Matrix> ops;
  for (const Matrix& a : ad->kraus_ops())
    for (const Matrix& b : pd->kraus_ops()) ops.push_back(kron(b, a));
  const auto pair = std::make_shared<const KrausChannel>("ad_pd", ops);
  Circuit c = brickwork(10, 6, 2);
  c.measure_all();
  NoiseModel noise;
  noise.add_all_gate_noise(channels::depolarizing(0.01));
  noise.add_gate_noise("cx", pair);
  noise.add_gate_noise("cz", pair);
  noise.add_measurement_noise(channels::phase_damping(0.05));
  noise.add_measurement_noise(channels::amplitude_damping(0.05));
  return noise.apply(c);
}

/// A dressed GHZ chain with bit flips on readout only: its gates are one
/// stretch with no noise site, which fusion collapses.
NoisyCircuit ghz_readout() {
  Circuit c(9);
  for (unsigned q = 0; q < 9; ++q) c.ry(q, 0.11 * (q + 1)).rz(q, 0.07 * (q + 1));
  c.h(0);
  for (unsigned q = 0; q + 1 < 9; ++q) c.cx(q, q + 1);
  for (unsigned q = 0; q < 9; ++q) c.rz(q, 0.05 * (q + 1)).ry(q, 0.13 * (q + 1));
  c.measure_all();
  NoiseModel noise;
  noise.add_measurement_noise(channels::bit_flip(0.05));
  return noise.apply(c);
}

NoisyCircuit densmat6() {
  Circuit c = brickwork(6, 6, 6);
  c.measure_all();
  return depolarized(c, 0.02, 0.02);
}

NoisyCircuit mps8() {
  Circuit c = brickwork(8, 6, 8);
  c.measure_all();
  return depolarized(c, 0.02, 0.0);
}

/// Clifford only: a GHZ chain with Pauli noise, for the stabilizer.
NoisyCircuit ghz_clifford() {
  Circuit c(7);
  c.h(0);
  for (unsigned q = 0; q + 1 < 7; ++q) c.cx(q, q + 1);
  for (unsigned q = 0; q < 7; ++q) c.s(q).h(q);
  c.measure_all();
  NoiseModel noise;
  noise.add_all_gate_noise(channels::depolarizing(0.02));
  noise.add_measurement_noise(channels::bit_flip(0.02));
  return noise.apply(c);
}

struct GoldenCase {
  const char* name;
  const char* backend;
  NoisyCircuit (*program)();
  /// `sample_probabilistic` draws and shots per spec (duplicates merged).
  std::size_t nsamples;
  std::size_t nshots;
  /// The first spec's shots, when set: above `kSampleChunk`, its leaf
  /// splits across workers, and its bin walk into ranges (past two, one
  /// range starts mid-distribution; kSampleChunk + 3 leaves range 1 in
  /// the rounding tail past the last cumulative).
  std::size_t first_shots = 0;
  /// Amplitude backends run with gate fusion off and on.
  bool fusable = true;
};

const std::vector<GoldenCase>& cases() {
  static const std::vector<GoldenCase> all = {
      {"bare_msd", "statevector", bare_msd, 48, 3000, kSampleChunk + 3},
      {"brickwork12", "statevector", brickwork12, 24, 2000},
      {"partial12", "statevector", partial12, 16, 3000},
      {"brickwork16", "statevector", brickwork16, 6, 1000},
      {"brickwork10", "statevector", brickwork10, 80, 100,
       2 * kSampleChunk + 5},
      {"damping_everywhere", "statevector", damping_everywhere, 60, 200},
      {"kraus2q", "statevector", kraus2q, 40, 200},
      {"ghz_readout", "statevector", ghz_readout, 40, 500},
      {"densmat6", "densmat", densmat6, 30, 500},
      {"mps8", "mps", mps8, 20, 300},
      {"stabilizer_ghz", "stabilizer", ghz_clifford, 60, 400, 0, false},
  };
  return all;
}

std::vector<TrajectorySpec> specs_of(const GoldenCase& c,
                                     const NoisyCircuit& noisy) {
  RngStream rng(0x601DE2ULL);
  pts::Options opt;
  opt.nsamples = c.nsamples;
  opt.nshots = c.nshots;
  opt.merge_duplicates = true;
  std::vector<TrajectorySpec> specs = pts::sample_probabilistic(noisy, opt, rng);
  if (c.first_shots != 0 && !specs.empty()) specs.front().shots = c.first_shots;
  return specs;
}

/// FNV-1a over every batch in spec order: its spec index, the bits of its
/// realised probability, its record count and its records.
std::uint64_t digest(const be::Result& result) {
  std::vector<const be::TrajectoryBatch*> batches;
  for (const be::TrajectoryBatch& b : result.batches) batches.push_back(&b);
  std::sort(batches.begin(), batches.end(), [](const auto* a, const auto* b) {
    return a->spec_index < b->spec_index;
  });
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  };
  for (const be::TrajectoryBatch* b : batches) {
    const std::uint64_t index = b->spec_index;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &b->realized_probability, sizeof bits);
    const std::uint64_t count = b->records.size();
    mix(&index, sizeof index);
    mix(&bits, sizeof bits);
    mix(&count, sizeof count);
    mix(b->records.data(), b->records.size() * sizeof(std::uint64_t));
  }
  return h;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  std::string s = os.str();
  return std::string(16 - s.size(), '0') + s;
}

std::string row_key(const GoldenCase& c, bool fuse) {
  return std::string(c.name) + " fuse=" + (fuse ? "1" : "0");
}

/// The table: one `<case> fuse=<0|1> <digest>` row per line, after
/// `# compiler:` and `# libc:` header lines.
struct Table {
  std::string compiler = "unknown";
  std::string libc = "unknown";
  std::map<std::string, std::string> rows;
};

Table read_table() {
  Table table;
  std::ifstream in(PTSBE_GOLDEN_TABLE);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# compiler: ", 0) == 0) {
      table.compiler = line.substr(12);
    } else if (line.rfind("# libc: ", 0) == 0) {
      table.libc = line.substr(8);
    } else if (!line.empty() && line[0] != '#') {
      const std::size_t cut = line.rfind(' ');
      table.rows[line.substr(0, cut)] = line.substr(cut + 1);
    }
  }
  return table;
}

/// The digest every configuration of `c` gives, or "" after reporting the
/// configurations that disagree.
std::string case_digest(const GoldenCase& c, bool fuse) {
  const NoisyCircuit noisy = c.program();
  const std::vector<TrajectorySpec> specs = specs_of(c, noisy);
  std::string first;
  std::string first_config;
  for (const kernels::KernelSet* set : kernels::available_sets()) {
    kernels::set_active(set->name);
    for (const std::size_t threads : {1u, 4u}) {
      for (const be::Schedule schedule :
           {be::Schedule::kIndependent, be::Schedule::kSharedPrefix}) {
        be::Options options;
        options.backend = c.backend;
        options.schedule = schedule;
        options.threads = threads;
        options.config.fuse_gates = fuse;
        const std::string got = hex(digest(be::execute(noisy, specs, options)));
        const std::string config = std::string("kernel=") + set->name +
                                   " threads=" + std::to_string(threads) +
                                   " schedule=" + be::to_string(schedule);
        if (first.empty()) {
          first = got;
          first_config = config;
        } else if (got != first) {
          ADD_FAILURE() << row_key(c, fuse) << ": " << config << " gives "
                        << got << " but " << first_config << " gives "
                        << first;
          kernels::set_active("auto");
          return "";
        }
      }
    }
  }
  kernels::set_active("auto");
  return first;
}

TEST(GoldenDigest, EveryCaseMatchesThePinnedTable) {
  const bool update = std::getenv("PTSBE_GOLDEN_UPDATE") != nullptr;
  const Table table = read_table();
  std::vector<std::pair<std::string, std::string>> rows;
  for (const GoldenCase& c : cases()) {
    for (const bool fuse : {false, true}) {
      if (fuse && !c.fusable) continue;
      const std::string got = case_digest(c, fuse);
      if (got.empty()) continue;
      rows.emplace_back(row_key(c, fuse), got);
      if (update) continue;
      const auto it = table.rows.find(row_key(c, fuse));
      ASSERT_NE(it, table.rows.end())
          << row_key(c, fuse) << " has no row in " << PTSBE_GOLDEN_TABLE;
      EXPECT_EQ(it->second, got)
          << row_key(c, fuse) << ": the table (made with " << table.compiler
          << ", " << table.libc << ") pins " << it->second
          << "; this build (" << compiler() << ", " << libc() << ") gives "
          << got;
    }
  }
  if (!update) {
    EXPECT_EQ(table.rows.size(), rows.size())
        << "the table holds rows for cases this suite no longer runs";
    return;
  }
  std::ofstream out(PTSBE_GOLDEN_TABLE);
  out << "# Record digests pinned by tests/test_golden.cpp: <case> "
         "fuse=<0|1> <FNV-1a of\n# spec index, realised-probability bits "
         "and records>. Regenerate with\n# PTSBE_GOLDEN_UPDATE=1 "
         "build/tests/test_golden.\n";
  out << "# compiler: " << compiler() << "\n# libc: " << libc() << "\n";
  for (const auto& [key, value] : rows) out << key << ' ' << value << '\n';
  ASSERT_TRUE(static_cast<bool>(out)) << "cannot write " << PTSBE_GOLDEN_TABLE;
}

}  // namespace
}  // namespace ptsbe

// Figure 5 reproduction: shots collected per minute as a function of total
// shots sampled per trajectory, tensor-network backend.
//
// Paper setup: 85-qubit [[17,1,5]]-encoded MSD preparation circuit on
// 4×H100 (cuTensorNet), >16× efficiency at 10^3-shot batches — limited, as
// §4 explains, by the sampler "requiring nearly all of the tensor network
// contraction process to reoccur for each sample" with only the contraction
// path cached. We therefore report three pipelines:
//
//   traditional — one full state preparation *per shot* (Algorithm 1);
//   PTSBE/uncached — one preparation per trajectory, but each sample redoes
//       the full-chain canonicalisation (the analogue of CUDA-Q v0.10's
//       per-sample re-contraction; this column is the paper's Fig. 5 and
//       should saturate at a modest factor like their 16×);
//   PTSBE/cached — one canonicalisation per batch, cached environments
//       reused across shots (the improvement the paper's §4 calls for).
//
// Workloads: the 35-qubit Steane-encoded preparation circuit (the paper's
// other MSD encoding) and the 125-qubit distance-5 block (qec/codes.hpp
// explains the [[17,1,5]] → [[25,1,5]] substitution).

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "ptsbe/common/timer.hpp"
#include "ptsbe/tensornet/mps.hpp"
#include "workloads.hpp"

namespace {

using namespace ptsbe;

/// Build one trajectory state: coherent circuit only (error-free trajectory
/// keeps columns comparable; PTS costs are negligible either way).
MpsState prepare(const Circuit& circuit, const MpsConfig& cfg) {
  MpsState mps(circuit.num_qubits(), cfg);
  mps.apply_circuit(circuit);
  return mps;
}

void sweep(const char* label, const Circuit& circuit, std::size_t max_batch) {
  MpsConfig cfg;
  cfg.max_bond = 64;
  cfg.truncation_error = 1e-10;

  // Records hold the first 64 qubits; the sampler still draws every qubit
  // of the chain, so the timings cover the whole 125-qubit block.
  std::vector<unsigned> recorded(std::min(circuit.num_qubits(), 64u));
  std::iota(recorded.begin(), recorded.end(), 0u);

  // Reference: traditional rate = shots/min with one full prep per shot.
  RngStream rng(21);
  double prep_seconds;
  {
    WallTimer t;
    MpsState probe = prepare(circuit, cfg);
    (void)probe.sample_records(1, rng, recorded);
    prep_seconds = t.seconds();
  }
  const double traditional_rate = 60.0 / prep_seconds;

  MpsState cached_state = prepare(circuit, cfg);
  MpsState uncached_state = prepare(circuit, cfg);
  std::printf("\n== %s (%u qubits, chi_max %zu) ==\n", label,
              circuit.num_qubits(), cached_state.max_bond_dim());
  std::printf("%10s %16s %18s %16s %10s %10s\n", "shots", "traditional",
              "PTSBE/uncached", "PTSBE/cached", "gain-unc", "gain-cache");
  for (std::size_t batch = 1; batch <= max_batch; batch *= 10) {
    // Uncached: prep once + per-shot full-chain canonicalisation.
    WallTimer t;
    const std::size_t probe = std::min<std::size_t>(batch, 50);
    for (std::size_t i = 0; i < probe; ++i)
      (void)uncached_state.sample_one_uncached(rng, recorded);
    const double unc_per_shot = t.seconds() / static_cast<double>(probe);
    const double unc_rate =
        static_cast<double>(batch) * 60.0 /
        (prep_seconds + unc_per_shot * static_cast<double>(batch));
    // Cached: prep once + one canonicalisation + cheap conditional samples.
    t.reset();
    (void)cached_state.sample_records(batch, rng, recorded);
    const double cache_rate = static_cast<double>(batch) * 60.0 /
                              (prep_seconds + t.seconds());
    std::printf("%10zu %16.0f %18.0f %16.0f %9.1fx %9.1fx\n", batch,
                traditional_rate, unc_rate, cache_rate,
                unc_rate / traditional_rate, cache_rate / traditional_rate);
  }
}

}  // namespace

int main() {
  sweep("MSD preparation, 5 x Steane (35 qubits)",
        qec::msd_preparation_circuit(qec::steane()), 1000);
  sweep("MSD preparation, 5 x [[25,1,5]] (125 qubits)",
        qec::msd_preparation_circuit(qec::rotated_surface_code(5)), 1000);

  std::printf(
      "\nPaper shape check: the uncached column saturates at a modest factor\n"
      "(the paper reports ~16x at 10^3 shots) because every sample redoes\n"
      "the contraction; the cached column keeps rising — quantifying the\n"
      "speedup opportunity the paper attributes to contraction-path and\n"
      "intermediate caching in future CUDA-Q releases.\n");
  return 0;
}

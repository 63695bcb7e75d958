#pragma once

/// \file kernel_set.hpp
/// \brief Runtime-dispatched SIMD kernels: the gate-apply loop and the bulk
/// sampler's random fill.
///
/// Every amplitude backend ultimately spends its time in the same inner
/// loop: stride over 2^n (or 4^n) complex amplitudes and hit each group
/// with a small matrix. A dense trajectory's bulk draw spends its time
/// generating Philox blocks. This header is the single seam between those
/// loops and the code that implements them. A `KernelSet` is a vtable of
/// amplitude-apply kernels plus one Philox block fill; the registry
/// compiles one scalar reference set plus AVX2 / AVX-512 variants (each
/// translation unit built with its own `-m` flags) and selects among them
/// by runtime CPUID detection, the `PTSBE_KERNEL` environment variable, or
/// `set_active()` (the CLI's `--kernel` flag). `draw_exponentials` reaches
/// the active set's fill the same way the gate kernels do.
///
/// **Determinism contract.** All kernel sets produce *bit-identical*
/// amplitudes for the same prepared gate, and bit-identical draws for the
/// same stream. SIMD variants vectorise across amplitude groups (counter
/// blocks) only — the per-amplitude arithmetic (which products are
/// formed, in which order they are summed) is exactly the scalar
/// reference's. Every kernel TU is compiled with `-ffp-contract=off` so no
/// variant fuses a multiply-add the others do not, and no kernel uses FMA
/// instructions. This is what keeps the repo-wide determinism matrices
/// (threads × strategy × backend × schedule × fusion, plus the serve/net
/// loopback matrices) byte-identical across kernel selections; the
/// kernel-parity suite (tests/test_kernels.cpp) pins it per kernel.
///
/// **Offload boundary.** The registry is the seam a future GPU / oneAPI
/// backend plugs into: implement one more `KernelSet` (whose "pointer"
/// would wrap device launches over device-resident amplitudes) and register
/// it — nothing above this header changes. `PreparedGate` is deliberately
/// a flat POD (classified op + flattened matrix), i.e. exactly the shape a
/// device-side gate queue wants, and `apply_prepared_span` is the batched
/// entry point a device backend would turn into one kernel launch per run.
///
/// **Layout contract.** Kernels address amplitudes as an array-of-struct
/// `double2` stream: `cplx` must be exactly two contiguous doubles
/// (static_assert'd below; guaranteed for std::complex<double> by the
/// standard's array-compatibility clause). Amplitude storage handed to a
/// kernel must be 64-byte aligned — `ptsbe::AlignedAllocator` (used by
/// StateVector / DensityMatrix) provides this — because the AVX paths use
/// aligned loads/stores on every full-width access.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ptsbe/common/philox.hpp"
#include "ptsbe/common/rng.hpp"
#include "ptsbe/linalg/matrix.hpp"

namespace ptsbe::kernels {

static_assert(sizeof(cplx) == 2 * sizeof(double),
              "kernels assume cplx is an array-of-struct double2");
static_assert(alignof(cplx) == alignof(double),
              "kernels assume cplx has no padding or over-alignment");

/// Structural class of a 1-/2-qubit operator, detected once per prepared
/// gate (exact ==0 tests, so misclassification is impossible — anything
/// not provably cheap takes the general dense path).
enum class GateClass : std::uint8_t {
  kIdentity,  ///< scaled-identity-free exact identity: apply is a no-op
  kDiag1,     ///< diagonal 2×2: one complex multiply per amplitude
  kPerm1,     ///< phased permutation (X/Y-like): move + one multiply
  kGeneral1,  ///< dense 2×2
  kDiag2,     ///< diagonal 4×4 (CZ, CRZ, ZZ-phases)
  kPerm2,     ///< phased 4-element permutation (CX, SWAP, iSWAP)
  kCtrl1,     ///< controlled 1q: identity on control=0 half (CRX, CU, CX)
  kGeneral2,  ///< dense 4×4
};

/// A classified, flattened gate: everything a kernel needs with no
/// indirection into `Matrix`. Built once per ExecPlan (or per apply call)
/// and reused across every trajectory that walks the plan.
struct PreparedGate {
  GateClass cls = GateClass::kGeneral1;
  std::uint8_t arity = 1;  ///< 1 or 2
  /// Gate qubits, `q[0]` = LSB of the matrix index. For kCtrl1, q[0] is
  /// the *control* and q[1] the *target* (already swapped if needed).
  std::array<unsigned, 2> q{0, 0};
  /// Dense row-major matrix (4 or 16 entries) for the general/ctrl paths;
  /// for kDiag* the first 2/4 entries are the diagonal; for kPerm* the
  /// first 2/4 entries are the row phases. For kCtrl1 the first 4 entries
  /// are the dense 2×2 acting on the target.
  std::array<cplx, 16> m{};
  /// kPerm* source map: new[r] = m[r] * old[src[r]].
  std::array<std::uint8_t, 4> src{0, 1, 2, 3};
};

/// One ISA's implementation of the amplitude-apply kernels. All pointers
/// are non-null in a registered set. `amp` is the full amplitude array of
/// `dim` complex entries (dim a power of two, 64-byte aligned); qubit
/// indices address bits of the amplitude index (qubit 0 = LSB).
///
/// Range entry: every gate kernel updates only the groups [first, last) of
/// its group index space. A group is the 2^k amplitudes a k-qubit kernel
/// mixes (k = 2 for `ctrl1`, whose control-0 half is left alone), numbered
/// by its first amplitude's index with the gate's k bits removed, so
/// [0, dim >> k) is the whole sweep. A range is that whole sweep or one
/// slice: `first` a multiple of 2^(kSliceBits − k) and `last` the next one
/// or the end.
struct KernelSet {
  const char* name = "";  ///< registry key: "scalar", "avx2", "avx512"
  /// Dense 2×2 `m` (row-major) on qubit q.
  void (*apply1)(cplx* amp, std::uint64_t dim, const cplx* m, unsigned q,
                 std::uint64_t first, std::uint64_t last);
  /// Dense 4×4 `m` (row-major) on qubits (q0 = LSB of the matrix index).
  void (*apply2)(cplx* amp, std::uint64_t dim, const cplx* m, unsigned q0,
                 unsigned q1, std::uint64_t first, std::uint64_t last);
  /// Diagonal d[2] on qubit q: amp[i] *= d[bit_q(i)].
  void (*diag1)(cplx* amp, std::uint64_t dim, const cplx* d, unsigned q,
                std::uint64_t first, std::uint64_t last);
  /// Diagonal d[4] on qubits (q0, q1): amp[i] *= d[bit_q1(i)<<1 | bit_q0(i)].
  void (*diag2)(cplx* amp, std::uint64_t dim, const cplx* d, unsigned q0,
                unsigned q1, std::uint64_t first, std::uint64_t last);
  /// Phased 2-permutation: group (v0, v1) -> (ph[0]*v[src[0]], ph[1]*v[src[1]]).
  void (*perm1)(cplx* amp, std::uint64_t dim, const std::uint8_t* src,
                const cplx* ph, unsigned q, std::uint64_t first,
                std::uint64_t last);
  /// Phased 4-permutation over a two-qubit group.
  void (*perm2)(cplx* amp, std::uint64_t dim, const std::uint8_t* src,
                const cplx* ph, unsigned q0, unsigned q1, std::uint64_t first,
                std::uint64_t last);
  /// Controlled dense 2×2 `u` on `target` where bit `control` is 1; the
  /// control=0 half of the state is untouched.
  void (*ctrl1)(cplx* amp, std::uint64_t dim, const cplx* u, unsigned control,
                unsigned target, std::uint64_t first, std::uint64_t last);
  /// One general-Kraus site with a diagonal K `g` (`is_diagonal`) over the
  /// units [first, last) of `kraus_units(dim)`, in one pass: every
  /// amplitude of the units' blocks is multiplied by `prescale` (re·s,
  /// im·s — the previous site's pending 1/√p, or 1), then by K with the
  /// gate kernels' arithmetic, and each block's Σ re·re + im·im, added in
  /// index order from 0.0, is written to `sums[block]`. The four blocks of
  /// a unit keep their add chains side by side.
  void (*kraus_sweep)(cplx* amp, std::uint64_t dim, const PreparedGate& g,
                      double prescale, double* sums, std::uint64_t first,
                      std::uint64_t last);
  /// Philox4x32-10 block fill (`Philox4x32::BlockFill`): the bits of the
  /// two `next_double()` values of every counter block in [ctr, ctr +
  /// blocks), block j's at out[2j] and out[2j + 1]. The scalar set is
  /// `Philox4x32::block_doubles`; the SIMD sets run four (AVX2) or eight
  /// (AVX-512) blocks per step, one block per 64-bit lane.
  Philox4x32::BlockFill philox_doubles;
};

// ---------------------------------------------------------------------------
// Classification / application
// ---------------------------------------------------------------------------

/// Classify and flatten a 1- or 2-qubit gate matrix. Precondition: 1 <=
/// qubits.size() <= 2, matrix is 2^arity square, qubits distinct.
[[nodiscard]] PreparedGate prepare_gate(const Matrix& m,
                                        std::span<const unsigned> qubits);

/// Range entry: apply one prepared gate to the groups [first, last) of its
/// kernel's group space only — the whole sweep [0, dim >> arity), run
/// serially, or one slice (see `KernelSet`).
void apply_prepared_range(const KernelSet& ks, cplx* amp, std::uint64_t dim,
                          const PreparedGate& g, std::uint64_t first,
                          std::uint64_t last);

/// A full sweep splits into slices of 2^kSliceBits amplitudes (256 KiB):
/// the ranges `ptsbe::parallel_for` hands the calling thread's team. A
/// state of at most one slice never splits.
inline constexpr unsigned kSliceBits = 14;

/// Does `kraus_sweep` take K of class `c`: a diagonal, the identity
/// included?
[[nodiscard]] constexpr bool is_diagonal(GateClass c) {
  return c == GateClass::kIdentity || c == GateClass::kDiag1 ||
         c == GateClass::kDiag2;
}

/// Units of one `kraus_sweep` over `dim` amplitudes. Block b is the
/// 2^kSliceBits amplitudes from b·2^kSliceBits (a state of at most one
/// slice is one block), and unit u is blocks [4u, 4u + 4), or every block
/// of a state with fewer than four. Units are position-addressed, so a
/// team may run them in any order.
[[nodiscard]] constexpr std::uint64_t kraus_units(std::uint64_t dim) {
  const std::uint64_t units = dim >> (kSliceBits + 2);
  return units > 0 ? units : 1;
}

/// amp[i] *= s (re·s, im·s) for i < n, in 2^kSliceBits-entry slices split
/// across the calling thread's team; nothing when s is 1, which is exact.
void scale(cplx* amp, std::uint64_t n, double s);

/// Apply one prepared gate with the given kernel set: one full sweep, its
/// slices split across the calling thread's team (ptsbe/common/parallel.hpp).
void apply_prepared(const KernelSet& ks, cplx* amp, std::uint64_t dim,
                    const PreparedGate& g);

/// Cache-blocking tile of `apply_prepared_span`: 2^kTileBits amplitudes
/// (1 MiB), small enough to stay in a core's L2 while several gates pass
/// over it.
inline constexpr unsigned kTileBits = 16;

/// Batched entry point: apply a span of prepared gates in order, in one
/// call. This is the span `SimState::apply_prepared_run` forwards and the
/// boundary a device backend would turn into a single launch.
///
/// Cache blocking: on a state of more than one tile, each maximal group of
/// at least two consecutive gates that stay inside a tile (identities, and
/// gates whose qubits all lie below `kTileBits`) runs tile by tile — every
/// tile takes the whole group before the next tile starts, and the tiles
/// are the ranges the calling thread's team splits. Other gates sweep the
/// full state one at a time, as `apply_prepared` does. Each amplitude sees
/// the same gates in the same order with the same arithmetic either way,
/// so the bytes never depend on the tiling or on the team.
void apply_prepared_span(const KernelSet& ks, cplx* amp, std::uint64_t dim,
                         std::span<const PreparedGate> gates);

/// Fill `words` with the next `words.size()` Exp(1) draws of `rng`, each
/// stored as the bits of its double, leaving `rng` where as many
/// `exponential()` calls would: the uniforms come from the active set's
/// `philox_doubles`, then one scalar pass applies `RngStream::exponential_of`.
/// Draw i depends only on (stream, i), so a worker that seeks its copy of
/// the stream to draw `first` (`RngStream::skip_doubles`) writes exactly
/// the words a sequential pass would.
void draw_exponentials(RngStream& rng, std::span<std::uint64_t> words);

/// Classify-and-apply convenience for un-prepared call sites (classification
/// is ~16 comparisons — negligible against the 2^n sweep it steers).
void apply_gate(const KernelSet& ks, cplx* amp, std::uint64_t dim,
                const Matrix& m, std::span<const unsigned> qubits);

/// Copy of `g` with every qubit shifted up by `shift` bits. Used by the
/// density-matrix backend, whose row index starts at bit n of the flat
/// ρ index.
[[nodiscard]] PreparedGate shifted(const PreparedGate& g, unsigned shift);

/// Copy of `g` with all matrix entries / phases conjugated (class and
/// permutation structure are preserved under conjugation). Used for the
/// ρ ← ρ M† right-multiply pass.
[[nodiscard]] PreparedGate conjugated(const PreparedGate& g);

// ---------------------------------------------------------------------------
// Registry / dispatch
// ---------------------------------------------------------------------------

/// The scalar reference set (always compiled, always supported).
[[nodiscard]] const KernelSet& scalar_kernel_set();

/// Compiled sets whose ISA the running CPU supports, scalar first.
[[nodiscard]] std::vector<const KernelSet*> available_sets();

/// The best available set (last of available_sets()), ignoring overrides.
[[nodiscard]] const KernelSet& best_available_set();

/// The active set. Resolved once on first use: `PTSBE_KERNEL` (one of
/// "scalar", "avx2", "avx512", "auto"/"") if set, else the best available.
/// \throws precondition_error if PTSBE_KERNEL names an unknown or
///         CPU-unsupported set.
[[nodiscard]] const KernelSet& active();

/// Override the active set by name ("auto" re-selects the best available).
/// \throws precondition_error on an unknown or unsupported name.
void set_active(std::string_view name);

/// Human-readable description of the detected ISA and the active set,
/// e.g. "avx512 (compiled: scalar avx2 avx512; cpu: avx512)".
[[nodiscard]] std::string describe_dispatch();

}  // namespace ptsbe::kernels

/// \file kernel_set.cpp
/// \brief Gate classification, prepared-gate application, the bulk draw's
/// exponentials, and the runtime dispatch registry (CPUID detection +
/// PTSBE_KERNEL / set_active override).

#include "ptsbe/kernels/kernel_set.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <sstream>

#include "kernel_sets_isa.hpp"
#include "ptsbe/common/error.hpp"
#include "ptsbe/common/parallel.hpp"

namespace ptsbe::kernels {

namespace {

bool is_zero(cplx v) { return v.real() == 0.0 && v.imag() == 0.0; }
bool is_one(cplx v) { return v.real() == 1.0 && v.imag() == 0.0; }

/// Is `m` a controlled 1q gate — identity on the half of the 4x4 index
/// space where the control bit is 0? `s0` holds the two matrix indices
/// with control bit 0, `s1` the complement ordered by target-bit value.
/// On success fills u with the row-major 2x2 acting on the target.
bool controlled_pattern(const Matrix& m, const unsigned (&s0)[2],
                        const unsigned (&s1)[2], cplx* u) {
  for (unsigned i : s0) {
    for (unsigned j = 0; j < 4; ++j) {
      const cplx row = m(i, j), col = m(j, i);
      if (j == i) {
        if (!is_one(row)) return false;
      } else {
        if (!is_zero(row) || !is_zero(col)) return false;
      }
    }
  }
  for (unsigned r = 0; r < 2; ++r)
    for (unsigned c = 0; c < 2; ++c) u[r * 2 + c] = m(s1[r], s1[c]);
  return true;
}

/// Permutation check: exactly one nonzero per row and per column. Fills
/// src[r] (column of row r's nonzero) and ph[r] (its value).
bool permutation_pattern(const Matrix& m, unsigned dim, std::uint8_t* src,
                         cplx* ph) {
  std::uint8_t col_used = 0;
  for (unsigned r = 0; r < dim; ++r) {
    int hit = -1;
    for (unsigned c = 0; c < dim; ++c) {
      if (!is_zero(m(r, c))) {
        if (hit >= 0) return false;
        hit = static_cast<int>(c);
      }
    }
    if (hit < 0) return false;  // singular; not a permutation
    if (col_used & (1u << hit)) return false;
    col_used = static_cast<std::uint8_t>(col_used | (1u << hit));
    src[r] = static_cast<std::uint8_t>(hit);
    ph[r] = m(r, static_cast<unsigned>(hit));
  }
  return true;
}

}  // namespace

PreparedGate prepare_gate(const Matrix& m, std::span<const unsigned> qubits) {
  const auto arity = qubits.size();
  PTSBE_REQUIRE(arity == 1 || arity == 2,
                "prepare_gate handles 1- and 2-qubit gates only");
  const unsigned dim = 1u << arity;
  PTSBE_REQUIRE(m.rows() == dim && m.cols() == dim,
                "gate matrix dimension does not match qubit count");
  PTSBE_REQUIRE(arity == 1 || qubits[0] != qubits[1],
                "gate qubits must be distinct");

  PreparedGate g;
  g.arity = static_cast<std::uint8_t>(arity);
  g.q = {qubits[0], arity == 2 ? qubits[1] : 0u};
  for (unsigned r = 0; r < dim; ++r)
    for (unsigned c = 0; c < dim; ++c) g.m[r * dim + c] = m(r, c);

  // Diagonal? (covers the exact identity too)
  bool diag = true;
  for (unsigned r = 0; r < dim && diag; ++r)
    for (unsigned c = 0; c < dim && diag; ++c)
      if (r != c && !is_zero(m(r, c))) diag = false;
  if (diag) {
    bool ident = true;
    for (unsigned r = 0; r < dim; ++r)
      if (!is_one(m(r, r))) ident = false;
    if (ident) {
      g.cls = GateClass::kIdentity;
      return g;
    }
    for (unsigned r = 0; r < dim; ++r) g.m[r] = m(r, r);
    g.cls = arity == 1 ? GateClass::kDiag1 : GateClass::kDiag2;
    return g;
  }

  if (arity == 2) {
    // Controlled patterns first: they touch only half the state, so CX-like
    // gates prefer kCtrl1 over the full-sweep permutation kernel.
    cplx u[4];
    if (controlled_pattern(m, {0, 2}, {1, 3}, u)) {
      // control = matrix bit 0 = qubits[0]; identity where it is 0.
      g.cls = GateClass::kCtrl1;
      g.q = {qubits[0], qubits[1]};
      for (unsigned k = 0; k < 4; ++k) g.m[k] = u[k];
      return g;
    }
    if (controlled_pattern(m, {0, 1}, {2, 3}, u)) {
      // control = matrix bit 1 = qubits[1].
      g.cls = GateClass::kCtrl1;
      g.q = {qubits[1], qubits[0]};
      for (unsigned k = 0; k < 4; ++k) g.m[k] = u[k];
      return g;
    }
  }

  std::uint8_t src[4];
  cplx ph[4];
  if (permutation_pattern(m, dim, src, ph)) {
    for (unsigned r = 0; r < dim; ++r) {
      g.src[r] = src[r];
      g.m[r] = ph[r];
    }
    g.cls = arity == 1 ? GateClass::kPerm1 : GateClass::kPerm2;
    return g;
  }

  g.cls = arity == 1 ? GateClass::kGeneral1 : GateClass::kGeneral2;
  return g;
}

void apply_prepared_range(const KernelSet& ks, cplx* amp, std::uint64_t dim,
                          const PreparedGate& g, std::uint64_t first,
                          std::uint64_t last) {
  const cplx* m = g.m.data();
  switch (g.cls) {
    case GateClass::kIdentity:
      return;
    case GateClass::kDiag1:
      ks.diag1(amp, dim, m, g.q[0], first, last);
      return;
    case GateClass::kPerm1:
      ks.perm1(amp, dim, g.src.data(), m, g.q[0], first, last);
      return;
    case GateClass::kGeneral1:
      ks.apply1(amp, dim, m, g.q[0], first, last);
      return;
    case GateClass::kDiag2:
      ks.diag2(amp, dim, m, g.q[0], g.q[1], first, last);
      return;
    case GateClass::kPerm2:
      ks.perm2(amp, dim, g.src.data(), m, g.q[0], g.q[1], first, last);
      return;
    case GateClass::kCtrl1:
      ks.ctrl1(amp, dim, m, /*control=*/g.q[0], /*target=*/g.q[1], first,
               last);
      return;
    case GateClass::kGeneral2:
      ks.apply2(amp, dim, m, g.q[0], g.q[1], first, last);
      return;
  }
}

namespace {

/// Does `g` only pair amplitudes inside one tile? An identity touches none.
bool fits_in_tile(const PreparedGate& g) {
  if (g.cls == GateClass::kIdentity) return true;
  return g.q[0] < kTileBits && (g.arity == 1 || g.q[1] < kTileBits);
}

}  // namespace

void apply_prepared(const KernelSet& ks, cplx* amp, std::uint64_t dim,
                    const PreparedGate& g) {
  if (g.cls == GateClass::kIdentity) return;
  const std::uint64_t groups = dim >> g.arity;
  const std::uint64_t slice = (std::uint64_t{1} << kSliceBits) >> g.arity;
  parallel_for((groups + slice - 1) / slice, [&](std::uint64_t s) {
    apply_prepared_range(ks, amp, dim, g, s * slice,
                         std::min(groups, (s + 1) * slice));
  });
}

void scale(cplx* amp, std::uint64_t n, double s) {
  if (s == 1.0) return;
  const std::uint64_t slice = std::uint64_t{1} << kSliceBits;
  parallel_for((n + slice - 1) / slice, [&](std::uint64_t r) {
    const std::uint64_t end = std::min(n, (r + 1) * slice);
    for (std::uint64_t i = r * slice; i < end; ++i) amp[i] *= s;
  });
}

void apply_prepared_span(const KernelSet& ks, cplx* amp, std::uint64_t dim,
                         std::span<const PreparedGate> gates) {
  constexpr std::uint64_t kTile = std::uint64_t{1} << kTileBits;
  const std::uint64_t tiles = dim >> kTileBits;
  std::size_t i = 0;
  while (i < gates.size()) {
    std::size_t end = i;
    if (tiles > 1)
      while (end < gates.size() && fits_in_tile(gates[end])) ++end;
    if (end - i < 2) {
      apply_prepared(ks, amp, dim, gates[i++]);
      continue;
    }
    const std::span<const PreparedGate> group = gates.subspan(i, end - i);
    parallel_for(tiles, [&](std::uint64_t t) {
      cplx* tile = amp + (t << kTileBits);
      for (const PreparedGate& g : group)
        apply_prepared_range(ks, tile, kTile, g, 0, kTile >> g.arity);
    });
    i = end;
  }
}

void draw_exponentials(RngStream& rng, std::span<std::uint64_t> words) {
  rng.raw().fill_doubles(words, active().philox_doubles);
  for (std::uint64_t& word : words)
    word = std::bit_cast<std::uint64_t>(
        RngStream::exponential_of(std::bit_cast<double>(word)));
}

void apply_gate(const KernelSet& ks, cplx* amp, std::uint64_t dim,
                const Matrix& m, std::span<const unsigned> qubits) {
  apply_prepared(ks, amp, dim, prepare_gate(m, qubits));
}

PreparedGate shifted(const PreparedGate& g, unsigned shift) {
  PreparedGate out = g;
  out.q[0] += shift;
  if (g.arity == 2 || g.cls == GateClass::kCtrl1) out.q[1] += shift;
  return out;
}

PreparedGate conjugated(const PreparedGate& g) {
  PreparedGate out = g;
  for (cplx& v : out.m) v = std::conj(v);
  return out;
}

// ---------------------------------------------------------------------------
// Registry / dispatch
// ---------------------------------------------------------------------------

namespace {

const std::vector<const KernelSet*>& compiled_vec() {
  static const std::vector<const KernelSet*> v = [] {
    std::vector<const KernelSet*> sets{&scalar_kernel_set()};
#if defined(PTSBE_KERNELS_HAVE_AVX2)
    sets.push_back(&avx2_kernel_set());
#endif
#if defined(PTSBE_KERNELS_HAVE_AVX512)
    sets.push_back(&avx512_kernel_set());
#endif
    return sets;
  }();
  return v;
}

bool cpu_supports(const KernelSet& ks) {
  const std::string_view name = ks.name;
  if (name == "scalar") return true;
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
  if (name == "avx2") return __builtin_cpu_supports("avx2") != 0;
  if (name == "avx512")
    return __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512dq") != 0;
#endif
  return false;
}

std::string known_names() {
  std::ostringstream os;
  os << "auto";
  for (const KernelSet* ks : compiled_vec()) os << ", " << ks->name;
  return os.str();
}

const KernelSet& resolve(std::string_view name) {
  if (name.empty() || name == "auto") return best_available_set();
  for (const KernelSet* ks : compiled_vec()) {
    if (name == ks->name) {
      PTSBE_REQUIRE(cpu_supports(*ks),
                    "kernel set '" + std::string(name) +
                        "' is compiled in but not supported by this CPU");
      return *ks;
    }
  }
  throw precondition_error("unknown kernel set '" + std::string(name) +
                           "' (known: " + known_names() + ")");
}

std::atomic<const KernelSet*> g_active{nullptr};

}  // namespace

std::vector<const KernelSet*> available_sets() {
  std::vector<const KernelSet*> out;
  for (const KernelSet* ks : compiled_vec())
    if (cpu_supports(*ks)) out.push_back(ks);
  return out;
}

const KernelSet& best_available_set() {
  const KernelSet* best = &scalar_kernel_set();
  for (const KernelSet* ks : compiled_vec())
    if (cpu_supports(*ks)) best = ks;  // compiled_vec is ordered worst→best
  return *best;
}

const KernelSet& active() {
  const KernelSet* ks = g_active.load(std::memory_order_acquire);
  if (ks != nullptr) return *ks;
  // First use: honour PTSBE_KERNEL, else pick the best the CPU supports.
  // A racing first use computes the same answer, so the double store is
  // benign.
  const char* env = std::getenv("PTSBE_KERNEL");
  const KernelSet& resolved = resolve(env != nullptr ? env : "auto");
  g_active.store(&resolved, std::memory_order_release);
  return resolved;
}

void set_active(std::string_view name) {
  g_active.store(&resolve(name), std::memory_order_release);
}

std::string describe_dispatch() {
  std::ostringstream os;
  os << active().name << " (compiled:";
  for (const KernelSet* ks : compiled_vec()) os << ' ' << ks->name;
  os << "; cpu:";
  for (const KernelSet* ks : compiled_vec())
    if (cpu_supports(*ks)) os << ' ' << ks->name;
  os << ')';
  return os.str();
}

}  // namespace ptsbe::kernels

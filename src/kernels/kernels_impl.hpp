#pragma once

/// \file kernels_impl.hpp (private to src/kernels)
/// \brief ISA-generic amplitude-kernel templates.
///
/// Each kernel is written once, parameterised by a SIMD *policy* — a small
/// struct exposing a register type holding `kWidth` complex doubles plus
/// load/store/broadcast/add and the complex-multiply building blocks. The
/// three translation units (scalar / AVX2 / AVX-512) instantiate the
/// templates with their policy and are compiled with their own `-m` flags;
/// this header contains no ISA-specific code itself.
///
/// Complex multiplies are expressed in *hoisted-coefficient* form: the gate
/// coefficient (matrix entry / diagonal / phase) is loop-invariant, so
/// `prep()` splits it once outside the loop into a real-part broadcast and
/// a sign-pre-flipped imaginary-part broadcast, and the per-amplitude work
/// `mulc(c, v, swapri(v))` is two multiplies and one add per register:
///   re = v.re*c.re + v.im*(-c.im),  im = v.im*c.re + v.re*c.im
/// Determinism is structural: those are exactly the scalar reference's four
/// products (multiplication commutes bitwise), the subtraction is realised
/// as an add of a sign-flipped multiplicand ((-x)*y == -(x*y) exactly), and
/// FP addition commutes bitwise — so every lane reproduces
///   re = c.re*v.re - c.im*v.im,  im = c.im*v.re + c.re*v.im
/// bit-for-bit, with no FMA anywhere. Sums over matrix rows are
/// left-associated in every path. With `-ffp-contract=off` on all kernel
/// TUs, every kernel set therefore produces bit-identical amplitudes; the
/// SIMD sets only vectorise *across* amplitude groups. A stride narrower
/// than the vector gathers kWidth groups into registers with the policy's
/// lane shuffles (`with_gather`: qubit 0, and qubit 1 for AVX-512) and runs
/// the wide path's per-lane arithmetic on them — the dense 2x2, and the
/// dense 4x4, controlled and permutation kernels whose low qubit is sub-width
/// (`quad_sweep`) — or calls the scalar set, so narrow states stay
/// bit-identical too.
///
/// Loop structure: every kernel runs the slice [first, last) of its group
/// index space (kernel_set.hpp) as rows of contiguous columns — a 1-qubit
/// kernel's row is one `outer` block of 2^q groups, a 2-qubit kernel's one
/// (outer, middle) block of 2^lo groups — and each row's part of the slice
/// is a plain inner loop (`Run`). Strides are hoisted out of the rows, so
/// no `insert_zero_bit` bit surgery runs per group, and [0, total) is the
/// whole serial sweep in row-major order.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#include "ptsbe/common/philox.hpp"
#include "ptsbe/kernels/kernel_set.hpp"

namespace ptsbe::kernels::detail {

/// The rows of a space whose rows hold 2^bits columns that the slice
/// [first, last) covers, and the registers of `lanes` columns it covers in
/// each, from column `lo`. A slice (kernel_set.hpp) is whole rows or lies
/// inside one row, so every row of it runs the same plain inner loop.
struct Run {
  Run(std::uint64_t first, std::uint64_t last, unsigned bits, unsigned lanes) {
    const std::uint64_t width = std::uint64_t{1} << bits;
    const bool whole_rows = last - first >= width;
    begin = first >> bits;
    end = whole_rows ? last >> bits : begin + 1;
    lo = whole_rows ? 0 : first - (begin << bits);
    registers = static_cast<std::int64_t>(
        (whole_rows ? width : last - first) / lanes);
  }
  std::uint64_t begin, end, lo;
  std::int64_t registers;  ///< Signed, so the loop vectoriser can use it.
};

/// Row `index` of a two-qubit kernel on qubits lo < hi, the (outer, middle)
/// block (index >> m, index mod 2^m) with m = hi - lo - 1, and its first
/// amplitude `base`, which `next` steps without splitting the index again.
struct Row2 {
  Row2(std::uint64_t row, unsigned lo, unsigned hi)
      : index(row),
        mid_mask((std::uint64_t{1} << (hi - lo - 1)) - 1),
        base(((row >> (hi - lo - 1)) << (hi + 1)) +
             ((row & mid_mask) << (lo + 1))),
        step(std::uint64_t{2} << lo),
        wrap((std::uint64_t{1} << hi) + step) {}
  void next() {
    ++index;
    base += (index & mid_mask) != 0 ? step : wrap;
  }
  std::uint64_t index, mid_mask, base, step, wrap;
};

/// Call `f(std::integral_constant<unsigned, S>{})` with the policy's lane
/// gather for a qubit of stride S = `stride` below the register width —
/// `P::deinterleave<S>` and `P::interleave<S>` (kernels_avx*.cpp) — and
/// return true, or return false when the policy has none for it.
template <class P, class F>
bool with_gather(std::uint64_t stride, const F& f) {
  if constexpr (P::kWidth >= 2) {
    if (stride == 1) {
      f(std::integral_constant<unsigned, 1>{});
      return true;
    }
  }
  if constexpr (P::kWidth >= 4) {
    if (stride == 2) {
      f(std::integral_constant<unsigned, 2>{});
      return true;
    }
  }
  return false;
}

/// A two-qubit sweep whose low qubit's stride is below the register width,
/// with the policy's lane gathers: each step gathers kWidth groups into
/// v[c], c = bit qa | bit qb << 1 of the amplitudes in each lane, calls
/// `body(v)`, which overwrites v, and scatters v back — so a kernel runs
/// its wide path's per-lane arithmetic on the same values. A step covers
/// 4·kWidth amplitudes: two register pairs across the high qubit's bit,
/// each pair split on the low qubit's bit, and when the high stride is
/// below the register width too (AVX-512 on qubits 0 and 1), each pair
/// split on it first. Returns false, having done nothing, when the policy
/// has no gather for the low stride or the state holds fewer than four
/// registers.
template <class P, class Body>
bool quad_sweep(cplx* amp, std::uint64_t dim, unsigned qa, unsigned qb,
                std::uint64_t first, std::uint64_t last, const Body& body) {
  using Reg = typename P::Reg;
  constexpr std::uint64_t W = P::kWidth;
  static_assert(W <= 4, "a step gathers at most two sub-width bits");
  if constexpr (W == 1) {
    return false;  // no stride is below the width of one amplitude
  } else {
    if (dim < 4 * W) return false;
    const unsigned lo = std::min(qa, qb), hi = std::max(qa, qb);
    const std::uint64_t shi = std::uint64_t{1} << hi;
    // The gathers index by (bit lo, bit hi); v indexes by (bit qa, bit qb).
    const bool swapped = qa != lo;
    return with_gather<P>(std::uint64_t{1} << lo, [&](auto stride) {
      constexpr unsigned S = decltype(stride)::value;
      // r[0], r[1]: registers whose amplitudes have the high bit clear,
      // split on the low bit into v[0] and v[1]; r[2], r[3]: the same with
      // it set. Updated in place.
      const auto update = [&](Reg (&r)[4]) {
        Reg v[4];
        P::template deinterleave<S>(r[0], r[1], v[0], v[1]);
        P::template deinterleave<S>(r[2], r[3], v[2], v[3]);
        if (swapped) std::swap(v[1], v[2]);
        body(v);
        if (swapped) std::swap(v[1], v[2]);
        P::template interleave<S>(v[0], v[1], r[0], r[1]);
        P::template interleave<S>(v[2], v[3], r[2], r[3]);
      };
      const auto step = [&](cplx* const (&p)[4]) {
        Reg r[4] = {P::load(p[0]), P::load(p[1]), P::load(p[2]),
                    P::load(p[3])};
        update(r);
        for (unsigned k = 0; k < 4; ++k) P::store(p[k], r[k]);
      };
      if (shi >= 2 * W) {
        // Rows of 2^(hi-1) groups: the 2^hi amplitudes below bit hi, whose
        // partners lie shi further on.
        const Run run(first, last, hi - 1, W);
        for (std::uint64_t row = run.begin; row < run.end; ++row) {
          cplx* p = amp + (row << (hi + 1)) + 2 * run.lo;
          for (std::int64_t j = 0, n = run.registers; j < n; ++j, p += 2 * W)
            step({p, p + W, p + shi, p + shi + W});
        }
        return;
      }
      // Both bits lie inside a block of 4·kWidth amplitudes, which holds
      // kWidth whole groups, so the sweep runs flat over the slice's blocks.
      for (std::uint64_t i = first / W; i < last / W; ++i) {
        cplx* p = amp + 4 * W * i;
        if (shi == W) {
          step({p, p + 2 * W, p + W, p + 3 * W});
        } else if constexpr (2 * S < W) {
          // The high bit is a lane bit too: split each register pair on it
          // first, which leaves it the register's bit and the third bit in
          // the lanes.
          Reg r[4];
          P::template deinterleave<2 * S>(P::load(p), P::load(p + W), r[0],
                                          r[2]);
          P::template deinterleave<2 * S>(P::load(p + 2 * W),
                                          P::load(p + 3 * W), r[1], r[3]);
          update(r);
          Reg a, b;
          P::template interleave<2 * S>(r[0], r[2], a, b);
          P::store(p, a);
          P::store(p + W, b);
          P::template interleave<2 * S>(r[1], r[3], a, b);
          P::store(p + 2 * W, a);
          P::store(p + 3 * W, b);
        }
      }
    });
  }
}

/// The scalar reference policy: one complex per "register", arithmetic in
/// the exact shape the vector lanes replicate.
struct ScalarPolicy {
  static constexpr unsigned kWidth = 1;
  using Reg = cplx;
  /// Prepared multiplier — scalar needs no splitting.
  using Coef = cplx;
  static Reg load(const cplx* p) { return *p; }
  static void store(cplx* p, Reg v) { *p = v; }
  static Reg bcast(cplx v) { return v; }
  static Reg add(Reg a, Reg b) {
    return Reg{a.real() + b.real(), a.imag() + b.imag()};
  }
  static Coef prep(Reg c) { return c; }
  static Reg swapri(Reg v) { return Reg{v.imag(), v.real()}; }
  /// The reference complex multiply: four products, the subtraction as
  /// written, the im sum in (c.im*v.re + c.re*v.im) order. `vs` (the
  /// pre-swapped value the vector policies consume) is unused here.
  static Reg mulc(Coef c, Reg v, Reg /*vs*/) {
    return Reg{c.real() * v.real() - c.imag() * v.imag(),
               c.imag() * v.real() + c.real() * v.imag()};
  }
  /// Lane-wise product: (a.re*b.re, a.im*b.im).
  static Reg mul(Reg a, Reg b) {
    return Reg{a.real() * b.real(), a.imag() * b.imag()};
  }
  /// Four blocks' running Σ|a|², block l in lane l.
  using Sums = std::array<double, 4>;
  /// Add the |a|² = re*re + im*im of v[l] to block l's sum, for the four
  /// blocks of a unit; each register holds kWidth consecutive amplitudes
  /// of its block, added in index order.
  static void add_norms(Sums& acc, const Reg (&v)[4]) {
    for (unsigned l = 0; l < 4; ++l)
      acc[l] += v[l].real() * v[l].real() + v[l].imag() * v[l].imag();
  }
};

// ---------------------------------------------------------------------------
// Dense 2x2
// ---------------------------------------------------------------------------

template <class P>
void apply1(cplx* amp, std::uint64_t dim, const cplx* m, unsigned q,
            std::uint64_t first, std::uint64_t last) {
  const std::uint64_t stride = 1ULL << q;
  typename P::Coef mc[4];
  for (unsigned k = 0; k < 4; ++k) mc[k] = P::prep(P::bcast(m[k]));
  if (stride >= P::kWidth) {
    const Run run(first, last, q, P::kWidth);
    for (std::uint64_t row = run.begin; row < run.end; ++row) {
      cplx* p0 = amp + (row << (q + 1)) + run.lo;
      cplx* p1 = p0 + stride;
      for (std::int64_t j = 0, n = run.registers; j < n;
           ++j, p0 += P::kWidth, p1 += P::kWidth) {
        const typename P::Reg v0 = P::load(p0), v1 = P::load(p1);
        const typename P::Reg v0s = P::swapri(v0), v1s = P::swapri(v1);
        P::store(p0,
                 P::add(P::mulc(mc[0], v0, v0s), P::mulc(mc[1], v1, v1s)));
        P::store(p1,
                 P::add(P::mulc(mc[2], v0, v0s), P::mulc(mc[3], v1, v1s)));
      }
    }
    return;
  }
  // Sub-width stride: with the policy's lane gather, each step updates
  // 2*kWidth consecutive amplitudes (kWidth groups) with the wide path's
  // per-lane arithmetic.
  if constexpr (P::kWidth > 1) {
    const std::int64_t steps =
        static_cast<std::int64_t>((last - first) / P::kWidth);
    cplx* const base = amp + 2 * first;
    if (dim >= 2 * P::kWidth && with_gather<P>(stride, [&](auto gather) {
          constexpr unsigned S = decltype(gather)::value;
          for (std::int64_t i = 0; i < steps; ++i) {
            cplx* const p = base + 2 * P::kWidth * i;
            typename P::Reg v0, v1, a, b;
            P::template deinterleave<S>(P::load(p), P::load(p + P::kWidth), v0,
                                        v1);
            const typename P::Reg v0s = P::swapri(v0), v1s = P::swapri(v1);
            P::template interleave<S>(
                P::add(P::mulc(mc[0], v0, v0s), P::mulc(mc[1], v1, v1s)),
                P::add(P::mulc(mc[2], v0, v0s), P::mulc(mc[3], v1, v1s)), a, b);
            P::store(p, a);
            P::store(p + P::kWidth, b);
          }
        }))
      return;
  }
  scalar_kernel_set().apply1(amp, dim, m, q, first, last);
}

// ---------------------------------------------------------------------------
// Dense 4x4
// ---------------------------------------------------------------------------

template <class P>
void apply2(cplx* amp, std::uint64_t dim, const cplx* m, unsigned q0,
            unsigned q1, std::uint64_t first, std::uint64_t last) {
  using Reg = typename P::Reg;
  const std::uint64_t s0 = 1ULL << q0, s1 = 1ULL << q1;
  const unsigned lo = std::min(q0, q1), hi = std::max(q0, q1);
  typename P::Coef mc[16];
  for (unsigned k = 0; k < 16; ++k) mc[k] = P::prep(P::bcast(m[k]));
  // Row r of the product, its four terms added left to right.
  const auto body = [&](Reg (&v)[4]) {
    const Reg vs[4] = {P::swapri(v[0]), P::swapri(v[1]), P::swapri(v[2]),
                       P::swapri(v[3])};
    Reg o[4];
    for (unsigned r = 0; r < 4; ++r)
      o[r] = P::add(P::add(P::add(P::mulc(mc[4 * r], v[0], vs[0]),
                                  P::mulc(mc[4 * r + 1], v[1], vs[1])),
                           P::mulc(mc[4 * r + 2], v[2], vs[2])),
                    P::mulc(mc[4 * r + 3], v[3], vs[3]));
    for (unsigned r = 0; r < 4; ++r) v[r] = o[r];
  };
  if ((1ULL << lo) < P::kWidth) {
    if (!quad_sweep<P>(amp, dim, q0, q1, first, last, body))
      scalar_kernel_set().apply2(amp, dim, m, q0, q1, first, last);
    return;
  }
  const Run run(first, last, lo, P::kWidth);
  for (Row2 row(run.begin, lo, hi); row.index < run.end; row.next()) {
    cplx* p0 = amp + row.base + run.lo;
    for (std::int64_t j = 0, n = run.registers; j < n; ++j, p0 += P::kWidth) {
      cplx* const p[4] = {p0, p0 + s0, p0 + s1, p0 + s0 + s1};
      Reg v[4] = {P::load(p[0]), P::load(p[1]), P::load(p[2]), P::load(p[3])};
      body(v);
      for (unsigned r = 0; r < 4; ++r) P::store(p[r], v[r]);
    }
  }
}

// ---------------------------------------------------------------------------
// Diagonal
// ---------------------------------------------------------------------------

template <class P>
void diag1(cplx* amp, std::uint64_t dim, const cplx* d, unsigned q,
           std::uint64_t first, std::uint64_t last) {
  const std::uint64_t stride = 1ULL << q;
  if (stride >= P::kWidth) {
    const typename P::Coef d0 = P::prep(P::bcast(d[0])),
                           d1 = P::prep(P::bcast(d[1]));
    const Run run(first, last, q, P::kWidth);
    for (std::uint64_t row = run.begin; row < run.end; ++row) {
      cplx* p0 = amp + (row << (q + 1)) + run.lo;
      cplx* p1 = p0 + stride;
      for (std::int64_t j = 0, n = run.registers; j < n;
           ++j, p0 += P::kWidth, p1 += P::kWidth) {
        const typename P::Reg v0 = P::load(p0), v1 = P::load(p1);
        P::store(p0, P::mulc(d0, v0, P::swapri(v0)));
        P::store(p1, P::mulc(d1, v1, P::swapri(v1)));
      }
    }
    return;
  }
  if (dim >= P::kWidth) {
    // Sub-width stride: the multiplier repeats with period 2*stride <=
    // kWidth, so one lane-patterned register covers the whole sweep, which
    // runs flat over the slice's amplitudes.
    alignas(64) cplx pat[P::kWidth];
    for (unsigned j = 0; j < P::kWidth; ++j) pat[j] = d[(j >> q) & 1u];
    const typename P::Coef dc = P::prep(P::load(pat));
    const std::int64_t n =
        static_cast<std::int64_t>(2 * (last - first) / P::kWidth);
    for (std::int64_t i = 0; i < n; ++i) {
      cplx* p = amp + 2 * first + static_cast<std::uint64_t>(i) * P::kWidth;
      const typename P::Reg v = P::load(p);
      P::store(p, P::mulc(dc, v, P::swapri(v)));
    }
    return;
  }
  scalar_kernel_set().diag1(amp, dim, d, q, first, last);
}

template <class P>
void diag2(cplx* amp, std::uint64_t dim, const cplx* d, unsigned q0,
           unsigned q1, std::uint64_t first, std::uint64_t last) {
  const unsigned lo = std::min(q0, q1), hi = std::max(q0, q1);
  const std::uint64_t slo = 1ULL << lo, shi = 1ULL << hi;
  // d entry for (bit at lo, bit at hi): q0 is always the matrix LSB.
  const auto didx = [&](unsigned blo, unsigned bhi) {
    const unsigned b0 = (lo == q0) ? blo : bhi;
    const unsigned b1 = (lo == q0) ? bhi : blo;
    return (b1 << 1) | b0;
  };
  if (slo >= P::kWidth) {
    const typename P::Coef d00 = P::prep(P::bcast(d[didx(0, 0)])),
                           d10 = P::prep(P::bcast(d[didx(1, 0)])),
                           d01 = P::prep(P::bcast(d[didx(0, 1)])),
                           d11 = P::prep(P::bcast(d[didx(1, 1)]));
    const Run run(first, last, lo, P::kWidth);
    for (Row2 row(run.begin, lo, hi); row.index < run.end; row.next()) {
      cplx* p0 = amp + row.base + run.lo;
      cplx* p1 = p0 + slo;
      cplx* p2 = p0 + shi;
      cplx* p3 = p0 + slo + shi;
      for (std::int64_t j = 0, n = run.registers; j < n;
           ++j, p0 += P::kWidth, p1 += P::kWidth, p2 += P::kWidth,
           p3 += P::kWidth) {
        const typename P::Reg v0 = P::load(p0), v1 = P::load(p1),
                              v2 = P::load(p2), v3 = P::load(p3);
        P::store(p0, P::mulc(d00, v0, P::swapri(v0)));
        P::store(p1, P::mulc(d10, v1, P::swapri(v1)));
        P::store(p2, P::mulc(d01, v2, P::swapri(v2)));
        P::store(p3, P::mulc(d11, v3, P::swapri(v3)));
      }
    }
    return;
  }
  if (shi >= P::kWidth) {
    // Low stride narrower than a register, high stride wide: lane-pattern
    // the low bit, two-pointer the high bit. The space is the dim/2
    // amplitude pairs across bit hi, two per group.
    alignas(64) cplx patA[P::kWidth], patB[P::kWidth];
    for (unsigned j = 0; j < P::kWidth; ++j) {
      const unsigned blo = (j >> lo) & 1u;
      patA[j] = d[didx(blo, 0)];
      patB[j] = d[didx(blo, 1)];
    }
    const typename P::Coef dA = P::prep(P::load(patA)),
                           dB = P::prep(P::load(patB));
    const Run run(2 * first, 2 * last, hi, P::kWidth);
    for (std::uint64_t row = run.begin; row < run.end; ++row) {
      cplx* p0 = amp + (row << (hi + 1)) + run.lo;
      cplx* p1 = p0 + shi;
      for (std::int64_t j = 0, n = run.registers; j < n;
           ++j, p0 += P::kWidth, p1 += P::kWidth) {
        const typename P::Reg v0 = P::load(p0), v1 = P::load(p1);
        P::store(p0, P::mulc(dA, v0, P::swapri(v0)));
        P::store(p1, P::mulc(dB, v1, P::swapri(v1)));
      }
    }
    return;
  }
  if (dim >= P::kWidth) {
    // Both strides sub-width: the full 4-entry pattern fits in one
    // register, and the sweep runs flat over the slice's amplitudes.
    alignas(64) cplx pat[P::kWidth];
    for (unsigned j = 0; j < P::kWidth; ++j)
      pat[j] = d[didx((j >> lo) & 1u, (j >> hi) & 1u)];
    const typename P::Coef dc = P::prep(P::load(pat));
    const std::int64_t n =
        static_cast<std::int64_t>(4 * (last - first) / P::kWidth);
    for (std::int64_t i = 0; i < n; ++i) {
      cplx* p = amp + 4 * first + static_cast<std::uint64_t>(i) * P::kWidth;
      const typename P::Reg v = P::load(p);
      P::store(p, P::mulc(dc, v, P::swapri(v)));
    }
    return;
  }
  scalar_kernel_set().diag2(amp, dim, d, q0, q1, first, last);
}

// ---------------------------------------------------------------------------
// Phased permutations
// ---------------------------------------------------------------------------

template <class P>
void perm1(cplx* amp, std::uint64_t dim, const std::uint8_t* src,
           const cplx* ph, unsigned q, std::uint64_t first,
           std::uint64_t last) {
  const std::uint64_t stride = 1ULL << q;
  if (stride < P::kWidth) {
    scalar_kernel_set().perm1(amp, dim, src, ph, q, first, last);
    return;
  }
  const typename P::Coef p0c = P::prep(P::bcast(ph[0])),
                         p1c = P::prep(P::bcast(ph[1]));
  const bool swap = src[0] == 1;
  const Run run(first, last, q, P::kWidth);
  for (std::uint64_t row = run.begin; row < run.end; ++row) {
    cplx* p0 = amp + (row << (q + 1)) + run.lo;
    cplx* p1 = p0 + stride;
    for (std::int64_t j = 0, n = run.registers; j < n;
         ++j, p0 += P::kWidth, p1 += P::kWidth) {
      const typename P::Reg v0 = P::load(p0), v1 = P::load(p1);
      const typename P::Reg a = swap ? v1 : v0, b = swap ? v0 : v1;
      P::store(p0, P::mulc(p0c, a, P::swapri(a)));
      P::store(p1, P::mulc(p1c, b, P::swapri(b)));
    }
  }
}

template <class P>
void perm2(cplx* amp, std::uint64_t dim, const std::uint8_t* src,
           const cplx* ph, unsigned q0, unsigned q1, std::uint64_t first,
           std::uint64_t last) {
  using Reg = typename P::Reg;
  const std::uint64_t s0 = 1ULL << q0, s1 = 1ULL << q1;
  const unsigned lo = std::min(q0, q1), hi = std::max(q0, q1);
  const typename P::Coef pc[4] = {
      P::prep(P::bcast(ph[0])), P::prep(P::bcast(ph[1])),
      P::prep(P::bcast(ph[2])), P::prep(P::bcast(ph[3]))};
  const auto body = [&](Reg (&v)[4]) {
    const Reg in[4] = {v[0], v[1], v[2], v[3]};
    for (unsigned r = 0; r < 4; ++r)
      v[r] = P::mulc(pc[r], in[src[r]], P::swapri(in[src[r]]));
  };
  if ((1ULL << lo) < P::kWidth) {
    if (!quad_sweep<P>(amp, dim, q0, q1, first, last, body))
      scalar_kernel_set().perm2(amp, dim, src, ph, q0, q1, first, last);
    return;
  }
  const Run run(first, last, lo, P::kWidth);
  for (Row2 row(run.begin, lo, hi); row.index < run.end; row.next()) {
    cplx* p0 = amp + row.base + run.lo;
    for (std::int64_t j = 0, n = run.registers; j < n; ++j, p0 += P::kWidth) {
      cplx* const p[4] = {p0, p0 + s0, p0 + s1, p0 + s0 + s1};
      Reg v[4] = {P::load(p[0]), P::load(p[1]), P::load(p[2]), P::load(p[3])};
      body(v);
      for (unsigned r = 0; r < 4; ++r) P::store(p[r], v[r]);
    }
  }
}

// ---------------------------------------------------------------------------
// Controlled 1q
// ---------------------------------------------------------------------------

template <class P>
void ctrl1(cplx* amp, std::uint64_t dim, const cplx* u, unsigned control,
           unsigned target, std::uint64_t first, std::uint64_t last) {
  using Reg = typename P::Reg;
  const std::uint64_t sc = 1ULL << control, st = 1ULL << target;
  const unsigned lo = std::min(control, target), hi = std::max(control, target);
  const typename P::Coef u00 = P::prep(P::bcast(u[0])),
                         u01 = P::prep(P::bcast(u[1])),
                         u10 = P::prep(P::bcast(u[2])),
                         u11 = P::prep(P::bcast(u[3]));
  // v0: control 1, target 0; v1: control 1, target 1.
  const auto update = [&](Reg& v0, Reg& v1) {
    const Reg v0s = P::swapri(v0), v1s = P::swapri(v1);
    const Reg o0 = P::add(P::mulc(u00, v0, v0s), P::mulc(u01, v1, v1s));
    v1 = P::add(P::mulc(u10, v0, v0s), P::mulc(u11, v1, v1s));
    v0 = o0;
  };
  if ((1ULL << lo) < P::kWidth) {
    // v[c], c = bit control | bit target << 1: the control-0 half moves
    // through the gather unchanged.
    if (!quad_sweep<P>(amp, dim, control, target, first, last,
                       [&](Reg (&v)[4]) { update(v[1], v[3]); }))
      scalar_kernel_set().ctrl1(amp, dim, u, control, target, first, last);
    return;
  }
  const Run run(first, last, lo, P::kWidth);
  for (Row2 row(run.begin, lo, hi); row.index < run.end; row.next()) {
    cplx* p0 = amp + row.base + run.lo + sc;
    cplx* p1 = p0 + st;
    for (std::int64_t j = 0, n = run.registers; j < n;
         ++j, p0 += P::kWidth, p1 += P::kWidth) {
      Reg v0 = P::load(p0), v1 = P::load(p1);
      update(v0, v1);
      P::store(p0, v0);
      P::store(p1, v1);
    }
  }
}

// ---------------------------------------------------------------------------
// General-Kraus sweep
// ---------------------------------------------------------------------------

/// Write the Σ|a|² of each block of unit `u` (kernel_set.hpp
/// `kraus_units`) to `sums`, taken in index order from 0.0 over the
/// registers `step(a, i)` returns: `step` updates the register at `a`,
/// amplitude index i, and is called once per register. A unit of four
/// blocks runs them side by side, one add chain per block.
template <class P, class Step>
void sum_unit(cplx* amp, std::uint64_t dim, std::uint64_t u, double* sums,
              const Step& step) {
  using Reg = typename P::Reg;
  const std::uint64_t amps = std::min(dim, std::uint64_t{1} << kSliceBits);
  const std::uint64_t blocks = dim / amps;
  if (blocks >= 4) {
    const std::uint64_t b = 4 * u;
    const std::uint64_t base[4] = {b * amps, (b + 1) * amps, (b + 2) * amps,
                                   (b + 3) * amps};
    typename P::Sums acc{};
    for (std::uint64_t j = 0; j < amps; j += P::kWidth) {
      const Reg v[4] = {step(amp + base[0] + j, base[0] + j),
                        step(amp + base[1] + j, base[1] + j),
                        step(amp + base[2] + j, base[2] + j),
                        step(amp + base[3] + j, base[3] + j)};
      P::add_norms(acc, v);
    }
    static_assert(sizeof acc == 4 * sizeof(double));
    std::memcpy(sums + b, &acc, sizeof acc);
    return;
  }
  for (std::uint64_t b = 0; b < blocks; ++b) {
    double acc = 0.0;
    for (std::uint64_t i = b * amps; i < (b + 1) * amps; i += P::kWidth) {
      alignas(64) cplx lanes[P::kWidth];
      P::store(lanes, step(amp + i, i));
      for (const cplx& a : lanes)
        acc += a.real() * a.real() + a.imag() * a.imag();
    }
    sums[b] = acc;
  }
}

template <class P>
void kraus_sweep(cplx* amp, std::uint64_t dim, const PreparedGate& g,
                 double prescale, double* sums, std::uint64_t first,
                 std::uint64_t last) {
  using Reg = typename P::Reg;
  if (dim < P::kWidth) {
    scalar_kernel_set().kraus_sweep(amp, dim, g, prescale, sums, first, last);
    return;
  }
  // The multiplier of the register at amplitude index i is
  // coef[bit qa of i | bit qb of i << 1]; a qubit below the register width
  // reads 0 there and sets the lanes' pattern instead. Bit 63 of an index
  // is 0, which makes a one-qubit diagonal a two-qubit one.
  const bool identity = g.cls == GateClass::kIdentity;
  const unsigned qa = g.q[0];
  const unsigned qb = g.cls == GateClass::kDiag2 ? g.q[1] : 63;
  const auto in_lanes = [](unsigned q) {
    return (std::uint64_t{1} << q) < P::kWidth;
  };
  typename P::Coef coef[4]{};
  for (unsigned t = 0; !identity && t < 4; ++t) {
    alignas(64) cplx pat[P::kWidth];
    for (unsigned j = 0; j < P::kWidth; ++j) {
      const unsigned ba = in_lanes(qa) ? (j >> qa) & 1u : t & 1u;
      const unsigned bb = in_lanes(qb) ? (j >> qb) & 1u : t >> 1;
      pat[j] = g.m[g.cls == GateClass::kDiag2 ? (bb << 1) | ba : ba];
    }
    coef[t] = P::prep(P::load(pat));
  }
  const Reg scale = P::bcast(cplx{prescale, prescale});
  const auto step = [&](cplx* a, std::uint64_t i) {
    Reg v = P::mul(P::load(a), scale);
    if (!identity)
      v = P::mulc(coef[((i >> qa) & 1u) | (((i >> qb) & 1u) << 1)], v,
                  P::swapri(v));
    P::store(a, v);
    return v;
  };
  for (std::uint64_t u = first; u < last; ++u)
    sum_unit<P>(amp, dim, u, sums, step);
}

// ---------------------------------------------------------------------------
// Philox4x32-10 block fill
// ---------------------------------------------------------------------------

/// `KernelSet::philox_doubles` for a policy with 64-bit integer lanes
/// (`Words`, `kBlocks` of them): block l of a step runs in lane l, each
/// Philox word in the low 32 bits of its lane. Bits above are don't-care:
/// `mul32` (vpmuludq) reads only the low half and `store_uniforms` masks.
/// The round is `Philox4x32::bijection`'s, p0 = M0·c0, p1 = M1·c2, then
/// (hi(p1) ^ c1 ^ k0, lo(p1), hi(p0) ^ c3 ^ k1, lo(p0)), so every lane
/// equals the reference bit for bit. A step across the wrap of the
/// counter's low 64 bits, and the blocks past the last whole step, take
/// the reference fill.
template <class P>
void philox_doubles(Philox4x32::Key key, Philox4x32::Counter ctr,
                    std::uint64_t blocks, std::uint64_t* out) {
  using W = typename P::Words;
  constexpr unsigned kRounds = 10;
  W k0[kRounds], k1[kRounds];
  for (unsigned r = 0; r < kRounds; ++r) {
    k0[r] = P::splat(std::uint32_t{key[0] + r * Philox4x32::kWeyl0});
    k1[r] = P::splat(std::uint32_t{key[1] + r * Philox4x32::kWeyl1});
  }
  const W m0 = P::splat(Philox4x32::kMul0), m1 = P::splat(Philox4x32::kMul1);
  std::uint64_t lo = (std::uint64_t{ctr[1]} << 32) | ctr[0];
  std::uint64_t hi = (std::uint64_t{ctr[3]} << 32) | ctr[2];
  const auto counter = [&] {
    return Philox4x32::Counter{
        static_cast<std::uint32_t>(lo), static_cast<std::uint32_t>(lo >> 32),
        static_cast<std::uint32_t>(hi), static_cast<std::uint32_t>(hi >> 32)};
  };
  for (std::uint64_t s = blocks / P::kBlocks; s > 0; --s) {
    if (lo > ~std::uint64_t{0} - (P::kBlocks - 1)) {
      Philox4x32::block_doubles(key, counter(), P::kBlocks, out);
    } else {
      // Lane l's counter is (hi, lo + l).
      W c0 = P::add64(P::splat(lo), P::lane_index()), c2 = P::splat(hi);
      W c1 = P::shr32(c0), c3 = P::shr32(c2);
      for (unsigned r = 0; r < kRounds; ++r) {
        const W p0 = P::mul32(c0, m0), p1 = P::mul32(c2, m1);
        c0 = P::xor64(P::xor64(P::shr32(p1), c1), k0[r]);
        c2 = P::xor64(P::xor64(P::shr32(p0), c3), k1[r]);
        c1 = p1;
        c3 = p0;
      }
      P::store_uniforms(out, c0, c1, c2, c3);
    }
    out += 2 * P::kBlocks;
    lo += P::kBlocks;
    if (lo < P::kBlocks) ++hi;
  }
  Philox4x32::block_doubles(key, counter(), blocks % P::kBlocks, out);
}

/// Bind every template instantiation for policy P into one KernelSet. A
/// policy without integer lanes (the scalar reference) fills Philox blocks
/// with `Philox4x32::block_doubles`.
template <class P>
KernelSet make_set(const char* name) {
  KernelSet ks;
  ks.name = name;
  ks.apply1 = &apply1<P>;
  ks.apply2 = &apply2<P>;
  ks.diag1 = &diag1<P>;
  ks.diag2 = &diag2<P>;
  ks.perm1 = &perm1<P>;
  ks.perm2 = &perm2<P>;
  ks.ctrl1 = &ctrl1<P>;
  ks.kraus_sweep = &kraus_sweep<P>;
  if constexpr (requires { typename P::Words; })
    ks.philox_doubles = &philox_doubles<P>;
  else
    ks.philox_doubles = &Philox4x32::block_doubles;
  return ks;
}

}  // namespace ptsbe::kernels::detail

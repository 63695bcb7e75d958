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
/// than the vector either takes a packed policy variant with the same
/// per-lane arithmetic (dense 2x2 on qubit 0, and on qubit 1 for AVX-512)
/// or falls back to the scalar-policy instantiation, so narrow states stay
/// bit-identical too.
///
/// Loop structure: strides are hoisted into a rectangular
/// (outer, middle, tile) nest — `insert_zero_bit` per-group bit surgery is
/// gone from the hot loops — which is also what the OpenMP `collapse`
/// clauses and the L1 tile size (kTileComplex per stream) hang off.

#include <algorithm>
#include <cstdint>

#include "ptsbe/kernels/kernel_set.hpp"

namespace ptsbe::kernels::detail {

/// Below this state size the OpenMP fork/join overhead dominates any win
/// (mirrors the historical statevector threshold).
constexpr std::uint64_t kOmpThreshold = 1ULL << 14;

/// Tile of the innermost contiguous run, in complex amplitudes per stream:
/// 512 cplx = 8 KiB, so the four streams of a 2q group stay L1-resident.
constexpr std::uint64_t kTileComplex = 512;

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
};

/// A policy may vectorise dense 2x2 gates on qubits narrower than its
/// register: `apply1_stride1` (qubit 0) and `apply1_stride2` (qubit 1) each
/// update 2*kWidth consecutive amplitudes with the wide path's per-lane
/// arithmetic, only packed differently.
template <class P>
concept HasStride1Apply1 = requires(cplx* p, const typename P::Coef* mc) {
  P::apply1_stride1(p, mc);
};

template <class P>
concept HasStride2Apply1 = requires(cplx* p, const typename P::Coef* mc) {
  P::apply1_stride2(p, mc);
};

/// Tile width in vector registers for policy P (>= 1).
template <class P>
constexpr std::int64_t tile_vecs(std::int64_t inner_vecs) {
  const std::int64_t cap =
      static_cast<std::int64_t>(std::max<std::uint64_t>(1, kTileComplex / P::kWidth));
  return std::min<std::int64_t>(inner_vecs, cap);
}

// ---------------------------------------------------------------------------
// Dense 2x2
// ---------------------------------------------------------------------------

/// Sweep a sub-width dense 2x2 kernel `step` over consecutive blocks of
/// 2*kWidth amplitudes.
template <class P, class Step>
void apply1_packed(cplx* amp, std::uint64_t dim, const cplx* m, Step step) {
  const typename P::Coef mc[4] = {
      P::prep(P::bcast(m[0])), P::prep(P::bcast(m[1])),
      P::prep(P::bcast(m[2])), P::prep(P::bcast(m[3]))};
  const std::int64_t n = static_cast<std::int64_t>(dim / (2 * P::kWidth));
#pragma omp parallel for schedule(static) if (dim >= kOmpThreshold)
  for (std::int64_t i = 0; i < n; ++i)
    step(amp + static_cast<std::uint64_t>(i) * 2 * P::kWidth, mc);
}

template <class P>
void apply1(cplx* amp, std::uint64_t dim, const cplx* m, unsigned q) {
  const std::uint64_t stride = 1ULL << q;
  if (stride >= P::kWidth) {
    const typename P::Coef m00 = P::prep(P::bcast(m[0])),
                           m01 = P::prep(P::bcast(m[1])),
                           m10 = P::prep(P::bcast(m[2])),
                           m11 = P::prep(P::bcast(m[3]));
    const std::int64_t nouter = static_cast<std::int64_t>(dim >> (q + 1));
    const std::int64_t ninner = static_cast<std::int64_t>(stride / P::kWidth);
    const std::int64_t tile = tile_vecs<P>(ninner);
    const std::int64_t ntile = ninner / tile;
#pragma omp parallel for collapse(2) schedule(static) \
    if (dim >= kOmpThreshold)
    for (std::int64_t outer = 0; outer < nouter; ++outer) {
      for (std::int64_t t = 0; t < ntile; ++t) {
        cplx* p0 = amp + (static_cast<std::uint64_t>(outer) << (q + 1)) +
                   static_cast<std::uint64_t>(t * tile) * P::kWidth;
        cplx* p1 = p0 + stride;
        for (std::int64_t j = 0; j < tile;
             ++j, p0 += P::kWidth, p1 += P::kWidth) {
          const typename P::Reg v0 = P::load(p0), v1 = P::load(p1);
          const typename P::Reg v0s = P::swapri(v0), v1s = P::swapri(v1);
          P::store(p0, P::add(P::mulc(m00, v0, v0s), P::mulc(m01, v1, v1s)));
          P::store(p1, P::add(P::mulc(m10, v0, v0s), P::mulc(m11, v1, v1s)));
        }
      }
    }
    return;
  }
  if constexpr (HasStride1Apply1<P>) {
    if (stride == 1 && dim >= 2 * P::kWidth) {
      apply1_packed<P>(amp, dim, m, [](cplx* p, const typename P::Coef* mc) {
        P::apply1_stride1(p, mc);
      });
      return;
    }
  }
  if constexpr (HasStride2Apply1<P>) {
    if (stride == 2 && dim >= 2 * P::kWidth) {
      apply1_packed<P>(amp, dim, m, [](cplx* p, const typename P::Coef* mc) {
        P::apply1_stride2(p, mc);
      });
      return;
    }
  }
  apply1<ScalarPolicy>(amp, dim, m, q);  // sub-width stride: bit-identical
}

// ---------------------------------------------------------------------------
// Dense 4x4
// ---------------------------------------------------------------------------

template <class P>
void apply2(cplx* amp, std::uint64_t dim, const cplx* m, unsigned q0,
            unsigned q1) {
  const std::uint64_t s0 = 1ULL << q0, s1 = 1ULL << q1;
  const unsigned lo = std::min(q0, q1), hi = std::max(q0, q1);
  const std::uint64_t slo = 1ULL << lo;
  if (slo < P::kWidth) {
    apply2<ScalarPolicy>(amp, dim, m, q0, q1);
    return;
  }
  typename P::Coef mc[16];
  for (unsigned k = 0; k < 16; ++k) mc[k] = P::prep(P::bcast(m[k]));
  const std::int64_t nouter = static_cast<std::int64_t>(dim >> (hi + 1));
  const std::int64_t nmid = static_cast<std::int64_t>((1ULL << hi) >> (lo + 1));
  const std::int64_t ninner = static_cast<std::int64_t>(slo / P::kWidth);
  const std::int64_t tile = tile_vecs<P>(ninner);
  const std::int64_t ntile = ninner / tile;
#pragma omp parallel for collapse(3) schedule(static) if (dim >= kOmpThreshold)
  for (std::int64_t outer = 0; outer < nouter; ++outer) {
    for (std::int64_t mid = 0; mid < nmid; ++mid) {
      for (std::int64_t t = 0; t < ntile; ++t) {
        const std::uint64_t base =
            (static_cast<std::uint64_t>(outer) << (hi + 1)) +
            (static_cast<std::uint64_t>(mid) << (lo + 1)) +
            static_cast<std::uint64_t>(t * tile) * P::kWidth;
        cplx* p0 = amp + base;
        cplx* p1 = p0 + s0;
        cplx* p2 = p0 + s1;
        cplx* p3 = p0 + s0 + s1;
        for (std::int64_t j = 0; j < tile; ++j, p0 += P::kWidth,
                          p1 += P::kWidth, p2 += P::kWidth, p3 += P::kWidth) {
          const typename P::Reg v0 = P::load(p0), v1 = P::load(p1),
                                v2 = P::load(p2), v3 = P::load(p3);
          const typename P::Reg v0s = P::swapri(v0), v1s = P::swapri(v1),
                                v2s = P::swapri(v2), v3s = P::swapri(v3);
          const typename P::Reg o0 = P::add(
              P::add(P::add(P::mulc(mc[0], v0, v0s), P::mulc(mc[1], v1, v1s)),
                     P::mulc(mc[2], v2, v2s)),
              P::mulc(mc[3], v3, v3s));
          const typename P::Reg o1 = P::add(
              P::add(P::add(P::mulc(mc[4], v0, v0s), P::mulc(mc[5], v1, v1s)),
                     P::mulc(mc[6], v2, v2s)),
              P::mulc(mc[7], v3, v3s));
          const typename P::Reg o2 = P::add(
              P::add(P::add(P::mulc(mc[8], v0, v0s), P::mulc(mc[9], v1, v1s)),
                     P::mulc(mc[10], v2, v2s)),
              P::mulc(mc[11], v3, v3s));
          const typename P::Reg o3 = P::add(
              P::add(
                  P::add(P::mulc(mc[12], v0, v0s), P::mulc(mc[13], v1, v1s)),
                  P::mulc(mc[14], v2, v2s)),
              P::mulc(mc[15], v3, v3s));
          P::store(p0, o0);
          P::store(p1, o1);
          P::store(p2, o2);
          P::store(p3, o3);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Diagonal
// ---------------------------------------------------------------------------

template <class P>
void diag1(cplx* amp, std::uint64_t dim, const cplx* d, unsigned q) {
  const std::uint64_t stride = 1ULL << q;
  if (stride >= P::kWidth) {
    const typename P::Coef d0 = P::prep(P::bcast(d[0])),
                           d1 = P::prep(P::bcast(d[1]));
    const std::int64_t nouter = static_cast<std::int64_t>(dim >> (q + 1));
    const std::int64_t ninner = static_cast<std::int64_t>(stride / P::kWidth);
#pragma omp parallel for collapse(2) schedule(static) \
    if (dim >= kOmpThreshold)
    for (std::int64_t outer = 0; outer < nouter; ++outer) {
      for (std::int64_t inner = 0; inner < ninner; ++inner) {
        cplx* p0 = amp + (static_cast<std::uint64_t>(outer) << (q + 1)) +
                   static_cast<std::uint64_t>(inner) * P::kWidth;
        cplx* p1 = p0 + stride;
        const typename P::Reg v0 = P::load(p0), v1 = P::load(p1);
        P::store(p0, P::mulc(d0, v0, P::swapri(v0)));
        P::store(p1, P::mulc(d1, v1, P::swapri(v1)));
      }
    }
    return;
  }
  if (dim >= P::kWidth) {
    // Sub-width stride: the multiplier repeats with period 2*stride <=
    // kWidth, so one lane-patterned register covers the whole sweep.
    alignas(64) cplx pat[P::kWidth];
    for (unsigned j = 0; j < P::kWidth; ++j) pat[j] = d[(j >> q) & 1u];
    const typename P::Coef dc = P::prep(P::load(pat));
    const std::int64_t n = static_cast<std::int64_t>(dim / P::kWidth);
#pragma omp parallel for schedule(static) if (dim >= kOmpThreshold)
    for (std::int64_t i = 0; i < n; ++i) {
      cplx* p = amp + static_cast<std::uint64_t>(i) * P::kWidth;
      const typename P::Reg v = P::load(p);
      P::store(p, P::mulc(dc, v, P::swapri(v)));
    }
    return;
  }
  diag1<ScalarPolicy>(amp, dim, d, q);
}

template <class P>
void diag2(cplx* amp, std::uint64_t dim, const cplx* d, unsigned q0,
           unsigned q1) {
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
    const std::int64_t nouter = static_cast<std::int64_t>(dim >> (hi + 1));
    const std::int64_t nmid = static_cast<std::int64_t>(shi >> (lo + 1));
    const std::int64_t ninner = static_cast<std::int64_t>(slo / P::kWidth);
#pragma omp parallel for collapse(3) schedule(static) \
    if (dim >= kOmpThreshold)
    for (std::int64_t outer = 0; outer < nouter; ++outer) {
      for (std::int64_t mid = 0; mid < nmid; ++mid) {
        for (std::int64_t inner = 0; inner < ninner; ++inner) {
          cplx* p0 = amp + (static_cast<std::uint64_t>(outer) << (hi + 1)) +
                     (static_cast<std::uint64_t>(mid) << (lo + 1)) +
                     static_cast<std::uint64_t>(inner) * P::kWidth;
          cplx* p1 = p0 + slo;
          cplx* p2 = p0 + shi;
          cplx* p3 = p0 + slo + shi;
          const typename P::Reg v0 = P::load(p0), v1 = P::load(p1),
                                v2 = P::load(p2), v3 = P::load(p3);
          P::store(p0, P::mulc(d00, v0, P::swapri(v0)));
          P::store(p1, P::mulc(d10, v1, P::swapri(v1)));
          P::store(p2, P::mulc(d01, v2, P::swapri(v2)));
          P::store(p3, P::mulc(d11, v3, P::swapri(v3)));
        }
      }
    }
    return;
  }
  if (shi >= P::kWidth) {
    // Low stride narrower than a register, high stride wide: lane-pattern
    // the low bit, two-pointer the high bit.
    alignas(64) cplx patA[P::kWidth], patB[P::kWidth];
    for (unsigned j = 0; j < P::kWidth; ++j) {
      const unsigned blo = (j >> lo) & 1u;
      patA[j] = d[didx(blo, 0)];
      patB[j] = d[didx(blo, 1)];
    }
    const typename P::Coef dA = P::prep(P::load(patA)),
                           dB = P::prep(P::load(patB));
    const std::int64_t nouter = static_cast<std::int64_t>(dim >> (hi + 1));
    const std::int64_t ninner = static_cast<std::int64_t>(shi / P::kWidth);
#pragma omp parallel for collapse(2) schedule(static) \
    if (dim >= kOmpThreshold)
    for (std::int64_t outer = 0; outer < nouter; ++outer) {
      for (std::int64_t inner = 0; inner < ninner; ++inner) {
        cplx* p0 = amp + (static_cast<std::uint64_t>(outer) << (hi + 1)) +
                   static_cast<std::uint64_t>(inner) * P::kWidth;
        cplx* p1 = p0 + shi;
        const typename P::Reg v0 = P::load(p0), v1 = P::load(p1);
        P::store(p0, P::mulc(dA, v0, P::swapri(v0)));
        P::store(p1, P::mulc(dB, v1, P::swapri(v1)));
      }
    }
    return;
  }
  if (dim >= P::kWidth) {
    // Both strides sub-width: the full 4-entry pattern fits in one register.
    alignas(64) cplx pat[P::kWidth];
    for (unsigned j = 0; j < P::kWidth; ++j)
      pat[j] = d[didx((j >> lo) & 1u, (j >> hi) & 1u)];
    const typename P::Coef dc = P::prep(P::load(pat));
    const std::int64_t n = static_cast<std::int64_t>(dim / P::kWidth);
#pragma omp parallel for schedule(static) if (dim >= kOmpThreshold)
    for (std::int64_t i = 0; i < n; ++i) {
      cplx* p = amp + static_cast<std::uint64_t>(i) * P::kWidth;
      const typename P::Reg v = P::load(p);
      P::store(p, P::mulc(dc, v, P::swapri(v)));
    }
    return;
  }
  diag2<ScalarPolicy>(amp, dim, d, q0, q1);
}

// ---------------------------------------------------------------------------
// Phased permutations
// ---------------------------------------------------------------------------

template <class P>
void perm1(cplx* amp, std::uint64_t dim, const std::uint8_t* src,
           const cplx* ph, unsigned q) {
  const std::uint64_t stride = 1ULL << q;
  if (stride < P::kWidth) {
    perm1<ScalarPolicy>(amp, dim, src, ph, q);
    return;
  }
  const typename P::Coef p0c = P::prep(P::bcast(ph[0])),
                         p1c = P::prep(P::bcast(ph[1]));
  const bool swap = src[0] == 1;
  const std::int64_t nouter = static_cast<std::int64_t>(dim >> (q + 1));
  const std::int64_t ninner = static_cast<std::int64_t>(stride / P::kWidth);
#pragma omp parallel for collapse(2) schedule(static) if (dim >= kOmpThreshold)
  for (std::int64_t outer = 0; outer < nouter; ++outer) {
    for (std::int64_t inner = 0; inner < ninner; ++inner) {
      cplx* p0 = amp + (static_cast<std::uint64_t>(outer) << (q + 1)) +
                 static_cast<std::uint64_t>(inner) * P::kWidth;
      cplx* p1 = p0 + stride;
      const typename P::Reg v0 = P::load(p0), v1 = P::load(p1);
      const typename P::Reg a = swap ? v1 : v0, b = swap ? v0 : v1;
      P::store(p0, P::mulc(p0c, a, P::swapri(a)));
      P::store(p1, P::mulc(p1c, b, P::swapri(b)));
    }
  }
}

template <class P>
void perm2(cplx* amp, std::uint64_t dim, const std::uint8_t* src,
           const cplx* ph, unsigned q0, unsigned q1) {
  const std::uint64_t s0 = 1ULL << q0, s1 = 1ULL << q1;
  const unsigned lo = std::min(q0, q1), hi = std::max(q0, q1);
  const std::uint64_t slo = 1ULL << lo;
  if (slo < P::kWidth) {
    perm2<ScalarPolicy>(amp, dim, src, ph, q0, q1);
    return;
  }
  const typename P::Coef ph0 = P::prep(P::bcast(ph[0])),
                         ph1 = P::prep(P::bcast(ph[1])),
                         ph2 = P::prep(P::bcast(ph[2])),
                         ph3 = P::prep(P::bcast(ph[3]));
  const std::int64_t nouter = static_cast<std::int64_t>(dim >> (hi + 1));
  const std::int64_t nmid = static_cast<std::int64_t>((1ULL << hi) >> (lo + 1));
  const std::int64_t ninner = static_cast<std::int64_t>(slo / P::kWidth);
#pragma omp parallel for collapse(3) schedule(static) if (dim >= kOmpThreshold)
  for (std::int64_t outer = 0; outer < nouter; ++outer) {
    for (std::int64_t mid = 0; mid < nmid; ++mid) {
      for (std::int64_t inner = 0; inner < ninner; ++inner) {
        cplx* p0 = amp + (static_cast<std::uint64_t>(outer) << (hi + 1)) +
                   (static_cast<std::uint64_t>(mid) << (lo + 1)) +
                   static_cast<std::uint64_t>(inner) * P::kWidth;
        cplx* const p[4] = {p0, p0 + s0, p0 + s1, p0 + s0 + s1};
        const typename P::Reg v[4] = {P::load(p[0]), P::load(p[1]),
                                      P::load(p[2]), P::load(p[3])};
        P::store(p[0], P::mulc(ph0, v[src[0]], P::swapri(v[src[0]])));
        P::store(p[1], P::mulc(ph1, v[src[1]], P::swapri(v[src[1]])));
        P::store(p[2], P::mulc(ph2, v[src[2]], P::swapri(v[src[2]])));
        P::store(p[3], P::mulc(ph3, v[src[3]], P::swapri(v[src[3]])));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Controlled 1q
// ---------------------------------------------------------------------------

template <class P>
void ctrl1(cplx* amp, std::uint64_t dim, const cplx* u, unsigned control,
           unsigned target) {
  const std::uint64_t sc = 1ULL << control, st = 1ULL << target;
  const unsigned lo = std::min(control, target), hi = std::max(control, target);
  const std::uint64_t slo = 1ULL << lo;
  if (slo < P::kWidth) {
    ctrl1<ScalarPolicy>(amp, dim, u, control, target);
    return;
  }
  const typename P::Coef u00 = P::prep(P::bcast(u[0])),
                         u01 = P::prep(P::bcast(u[1])),
                         u10 = P::prep(P::bcast(u[2])),
                         u11 = P::prep(P::bcast(u[3]));
  const std::int64_t nouter = static_cast<std::int64_t>(dim >> (hi + 1));
  const std::int64_t nmid = static_cast<std::int64_t>((1ULL << hi) >> (lo + 1));
  const std::int64_t ninner = static_cast<std::int64_t>(slo / P::kWidth);
  const std::int64_t tile = tile_vecs<P>(ninner);
  const std::int64_t ntile = ninner / tile;
#pragma omp parallel for collapse(3) schedule(static) if (dim >= kOmpThreshold)
  for (std::int64_t outer = 0; outer < nouter; ++outer) {
    for (std::int64_t mid = 0; mid < nmid; ++mid) {
      for (std::int64_t t = 0; t < ntile; ++t) {
        const std::uint64_t base =
            (static_cast<std::uint64_t>(outer) << (hi + 1)) +
            (static_cast<std::uint64_t>(mid) << (lo + 1)) +
            static_cast<std::uint64_t>(t * tile) * P::kWidth + sc;
        cplx* p0 = amp + base;       // control = 1, target = 0
        cplx* p1 = p0 + st;          // control = 1, target = 1
        for (std::int64_t j = 0; j < tile;
             ++j, p0 += P::kWidth, p1 += P::kWidth) {
          const typename P::Reg v0 = P::load(p0), v1 = P::load(p1);
          const typename P::Reg v0s = P::swapri(v0), v1s = P::swapri(v1);
          P::store(p0, P::add(P::mulc(u00, v0, v0s), P::mulc(u01, v1, v1s)));
          P::store(p1, P::add(P::mulc(u10, v0, v0s), P::mulc(u11, v1, v1s)));
        }
      }
    }
  }
}

/// Bind every template instantiation for policy P into one KernelSet.
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
  return ks;
}

}  // namespace ptsbe::kernels::detail

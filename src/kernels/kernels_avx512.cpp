/// \file kernels_avx512.cpp
/// \brief AVX-512 kernel set: 512-bit registers, four complex amplitudes
/// or eight Philox blocks per register. Compiled with -mavx512f -mavx512dq
/// -ffp-contract=off (DQ supplies _mm512_xor_pd, _mm512_broadcast_f64x2 and
/// _mm512_cvtepu64_pd); dispatched only when the CPU reports both avx512f
/// and avx512dq.
///
/// Same arithmetic-shape rules as the AVX2 set: no FMA, subtraction as
/// multiply-by-sign-flipped coefficient, scalar summation order per lane,
/// with the coefficient split hoisted out of the sweep loops by prep().

#include <immintrin.h>

#include "kernels_impl.hpp"

namespace ptsbe::kernels {
namespace {

struct Avx512Policy {
  static constexpr unsigned kWidth = 4;
  using Reg = __m512d;
  /// Prepared loop-invariant multiplier: `re` carries c.re in both lanes of
  /// each pair, `im` carries (-c.im, +c.im) pairs with the sign of the
  /// complex subtraction pre-applied.
  struct Coef {
    Reg re, im;
  };
  static Reg load(const cplx* p) {
    return _mm512_load_pd(reinterpret_cast<const double*>(p));
  }
  static void store(cplx* p, Reg v) {
    _mm512_store_pd(reinterpret_cast<double*>(p), v);
  }
  // bcast and prep use the all-lanes masked intrinsics: the unmasked ones
  // pass GCC's `_mm512_undefined_pd()` ("__Y = __Y"), which -Wuninitialized
  // flags once the coefficient set-up is inlined (GCC PR105593).
  static Reg bcast(cplx v) {
    return _mm512_mask_broadcast_f64x2(
        _mm512_setzero_pd(), 0xFF,
        _mm_loadu_pd(reinterpret_cast<const double*>(&v)));
  }
  static Reg add(Reg a, Reg b) { return _mm512_add_pd(a, b); }
  static Coef prep(Reg c) {
    const Reg sign =
        _mm512_set_pd(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);
    return {_mm512_mask_movedup_pd(c, 0xFF, c),
            _mm512_xor_pd(_mm512_mask_permute_pd(c, 0xFF, c, 0xFF), sign)};
  }
  static Reg swapri(Reg v) { return _mm512_permute_pd(v, 0x55); }
  /// Per complex lane, with vs = swapri(v):
  ///   re = v.re*c.re + v.im*(-c.im),  im = v.im*c.re + v.re*c.im
  /// — bit-identical to the scalar reference (products commute bitwise,
  /// (-x)*y == -(x*y) exactly, FP add commutes bitwise).
  static Reg mulc(Coef c, Reg v, Reg vs) {
    return _mm512_add_pd(_mm512_mul_pd(v, c.re), _mm512_mul_pd(vs, c.im));
  }
  static Reg mul(Reg a, Reg b) { return _mm512_mul_pd(a, b); }
  /// Four blocks' running Σ|a|², block l in lane l.
  using Sums = __m256d;
  /// Squares, then unpack pairs block 2m's and 2m+1's re² and im² of
  /// amplitude k in 128-bit lane k, whose sum is their |a|²; permutex2var
  /// gathers amplitudes 0 and 1 (then 2 and 3) of the four blocks into the
  /// two halves of a register, added half by half in index order.
  static void add_norms(Sums& acc, const Reg (&v)[4]) {
    const Reg s0 = mul(v[0], v[0]), s1 = mul(v[1], v[1]),
              s2 = mul(v[2], v[2]), s3 = mul(v[3], v[3]);
    const Reg n01 = add(_mm512_unpacklo_pd(s0, s1), _mm512_unpackhi_pd(s0, s1));
    const Reg n23 = add(_mm512_unpacklo_pd(s2, s3), _mm512_unpackhi_pd(s2, s3));
    const __m512i first = _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0);
    const __m512i second = _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4);
    const Reg k01 = _mm512_permutex2var_pd(n01, first, n23);
    const Reg k23 = _mm512_permutex2var_pd(n01, second, n23);
    acc = _mm256_add_pd(acc, _mm512_castpd512_pd256(k01));
    acc = _mm256_add_pd(acc, _mm512_extractf64x4_pd(k01, 1));
    acc = _mm256_add_pd(acc, _mm512_castpd512_pd256(k23));
    acc = _mm256_add_pd(acc, _mm512_extractf64x4_pd(k23, 1));
  }
  /// Lane gathers for a qubit whose stride S (1 or 2) is below the
  /// register width (kernels_impl.hpp `with_gather`): `deinterleave<S>`
  /// splits eight consecutive amplitudes, a then b, into the four whose
  /// stride-S bit is clear (v0) and the four where it is set (v1), each in
  /// index order; `interleave<S>` puts them back. Stride 1 takes
  /// permutex2var; stride-2 partners are whole 128-bit lanes apart, so one
  /// lane shuffle per register does it.
  template <unsigned S>
  static void deinterleave(Reg a, Reg b, Reg& v0, Reg& v1) {
    static_assert(S == 1 || S == 2);
    if constexpr (S == 1) {
      const __m512i even = _mm512_set_epi64(13, 12, 9, 8, 5, 4, 1, 0);
      const __m512i odd = _mm512_set_epi64(15, 14, 11, 10, 7, 6, 3, 2);
      v0 = _mm512_permutex2var_pd(a, even, b);  // [a0 a2 b0 b2]
      v1 = _mm512_permutex2var_pd(a, odd, b);   // [a1 a3 b1 b3]
    } else {
      v0 = _mm512_shuffle_f64x2(a, b, 0x44);  // [a0 a1 b0 b1]
      v1 = _mm512_shuffle_f64x2(a, b, 0xEE);  // [a2 a3 b2 b3]
    }
  }
  template <unsigned S>
  static void interleave(Reg v0, Reg v1, Reg& a, Reg& b) {
    static_assert(S == 1 || S == 2);
    if constexpr (S == 1) {
      const __m512i lo = _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0);
      const __m512i hi = _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4);
      a = _mm512_permutex2var_pd(v0, lo, v1);  // [v0.0 v1.0 v0.1 v1.1]
      b = _mm512_permutex2var_pd(v0, hi, v1);  // [v0.2 v1.2 v0.3 v1.3]
    } else {
      a = _mm512_shuffle_f64x2(v0, v1, 0x44);  // [v0.0 v0.1 v1.0 v1.1]
      b = _mm512_shuffle_f64x2(v0, v1, 0xEE);  // [v0.2 v0.3 v1.2 v1.3]
    }
  }

  /// Philox lanes (kernels_impl.hpp `philox_doubles`): eight counter
  /// blocks per step, one per 64-bit lane.
  using Words = __m512i;
  static constexpr unsigned kBlocks = 8;
  static Words splat(std::uint64_t v) {
    return _mm512_set1_epi64(static_cast<long long>(v));
  }
  static Words lane_index() { return _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0); }
  static Words add64(Words a, Words b) { return _mm512_add_epi64(a, b); }
  static Words mul32(Words a, Words b) { return _mm512_mul_epu32(a, b); }
  static Words shr32(Words a) { return _mm512_srli_epi64(a, 32); }
  static Words xor64(Words a, Words b) { return _mm512_xor_si512(a, b); }
  /// Each block's two doubles, (w1:w0 >> 11)·2^-53 and (w3:w2 >> 11)·2^-53,
  /// converted exactly (the values are below 2^53) and interleaved.
  static void store_uniforms(std::uint64_t* out, Words c0, Words c1, Words c2,
                             Words c3) {
    const Words low = _mm512_set1_epi64(0xFFFFFFFF);
    const __m512d scale = _mm512_set1_pd(0x1.0p-53);
    const auto uniform = [&](Words w_lo, Words w_hi) {
      const Words bits = _mm512_or_si512(_mm512_slli_epi64(w_hi, 32),
                                         _mm512_and_si512(w_lo, low));
      return _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64(bits, 11)),
                           scale);
    };
    const __m512d d0 = uniform(c0, c1), d1 = uniform(c2, c3);
    const __m512i first = _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0);
    const __m512i second = _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4);
    _mm512_storeu_si512(out, _mm512_castpd_si512(
                                 _mm512_permutex2var_pd(d0, first, d1)));
    _mm512_storeu_si512(out + 8, _mm512_castpd_si512(
                                     _mm512_permutex2var_pd(d0, second, d1)));
  }
};

}  // namespace

const KernelSet& avx512_kernel_set() {
  static const KernelSet ks = detail::make_set<Avx512Policy>("avx512");
  return ks;
}

}  // namespace ptsbe::kernels

/// \file kernels_avx2.cpp
/// \brief AVX2 kernel set: 256-bit registers, two complex amplitudes or
/// four Philox blocks per register. Compiled with -mavx2 -ffp-contract=off.
///
/// The complex multiply mirrors the scalar reference per lane — four
/// multiplies, the subtraction realised as multiply-by-sign-flipped
/// coefficient — and deliberately avoids vfmaddsub / any FMA (single-rounded
/// fused ops would break the bit-for-bit parity contract with the scalar
/// set). The coefficient split (prep) happens once per gate, outside the
/// sweep loops, so the per-register work is one shuffle, two multiplies and
/// one add.

#include <immintrin.h>

#include "kernels_impl.hpp"

namespace ptsbe::kernels {
namespace {

struct Avx2Policy {
  static constexpr unsigned kWidth = 2;
  using Reg = __m256d;
  /// Prepared loop-invariant multiplier: `re` carries c.re in both lanes of
  /// each pair, `im` carries (-c.im, +c.im) — the sign flip that turns the
  /// complex subtraction into a plain add is baked in here, once.
  struct Coef {
    Reg re, im;
  };
  static Reg load(const cplx* p) {
    return _mm256_load_pd(reinterpret_cast<const double*>(p));
  }
  static void store(cplx* p, Reg v) {
    _mm256_store_pd(reinterpret_cast<double*>(p), v);
  }
  static Reg bcast(cplx v) {
    return _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(&v));
  }
  static Reg add(Reg a, Reg b) { return _mm256_add_pd(a, b); }
  static Coef prep(Reg c) {
    const Reg sign = _mm256_set_pd(0.0, -0.0, 0.0, -0.0);
    return {_mm256_movedup_pd(c),                             // [c.re c.re]
            _mm256_xor_pd(_mm256_permute_pd(c, 0xF), sign)};  // [-c.im c.im]
  }
  static Reg swapri(Reg v) { return _mm256_permute_pd(v, 0x5); }
  /// Per complex lane, with vs = swapri(v):
  ///   re = v.re*c.re + v.im*(-c.im),  im = v.im*c.re + v.re*c.im
  /// — bit-identical to the scalar reference (products commute bitwise,
  /// (-x)*y == -(x*y) exactly, FP add commutes bitwise).
  static Reg mulc(Coef c, Reg v, Reg vs) {
    return _mm256_add_pd(_mm256_mul_pd(v, c.re), _mm256_mul_pd(vs, c.im));
  }
  static Reg mul(Reg a, Reg b) { return _mm256_mul_pd(a, b); }
  /// Four blocks' running Σ|a|², block l in lane l.
  using Sums = __m256d;
  /// Squares, then unpack pairs block 2m's and 2m+1's re² and im² of
  /// amplitude k in 128-bit lane k, whose sum is their |a|²; the lane
  /// permutes gather amplitude k of the four blocks, added in index order.
  static void add_norms(Sums& acc, const Reg (&v)[4]) {
    const Reg s0 = mul(v[0], v[0]), s1 = mul(v[1], v[1]),
              s2 = mul(v[2], v[2]), s3 = mul(v[3], v[3]);
    const Reg n01 = add(_mm256_unpacklo_pd(s0, s1), _mm256_unpackhi_pd(s0, s1));
    const Reg n23 = add(_mm256_unpacklo_pd(s2, s3), _mm256_unpackhi_pd(s2, s3));
    acc = add(acc, _mm256_permute2f128_pd(n01, n23, 0x20));
    acc = add(acc, _mm256_permute2f128_pd(n01, n23, 0x31));
  }
  /// Lane gathers for qubit 0, whose stride is below the register width
  /// (kernels_impl.hpp `with_gather`): `deinterleave<1>` splits four
  /// consecutive amplitudes, a then b, into the even (v0) and odd (v1)
  /// ones, each in index order; `interleave<1>` puts them back.
  template <unsigned S>
  static void deinterleave(Reg a, Reg b, Reg& v0, Reg& v1) {
    static_assert(S == 1);
    v0 = _mm256_permute2f128_pd(a, b, 0x20);  // [a0 b0]
    v1 = _mm256_permute2f128_pd(a, b, 0x31);  // [a1 b1]
  }
  template <unsigned S>
  static void interleave(Reg v0, Reg v1, Reg& a, Reg& b) {
    static_assert(S == 1);
    a = _mm256_permute2f128_pd(v0, v1, 0x20);  // [v0.0 v1.0]
    b = _mm256_permute2f128_pd(v0, v1, 0x31);  // [v0.1 v1.1]
  }

  /// Philox lanes (kernels_impl.hpp `philox_doubles`): four counter blocks
  /// per step, one per 64-bit lane.
  using Words = __m256i;
  static constexpr unsigned kBlocks = 4;
  static Words splat(std::uint64_t v) {
    return _mm256_set1_epi64x(static_cast<long long>(v));
  }
  static Words lane_index() { return _mm256_set_epi64x(3, 2, 1, 0); }
  static Words add64(Words a, Words b) { return _mm256_add_epi64(a, b); }
  static Words mul32(Words a, Words b) { return _mm256_mul_epu32(a, b); }
  static Words shr32(Words a) { return _mm256_srli_epi64(a, 32); }
  static Words xor64(Words a, Words b) { return _mm256_xor_si256(a, b); }
  /// Each block's two doubles, (w1:w0 >> 11)·2^-53 and (w3:w2 >> 11)·2^-53,
  /// interleaved. AVX2 has no 64-bit integer conversion, so each is
  /// w_hi·2^-32 + (w_lo >> 11)·2^-53, both parts converted by the 2^52
  /// exponent trick: every step is exact, so the sum equals the reference.
  static void store_uniforms(std::uint64_t* out, Words c0, Words c1, Words c2,
                             Words c3) {
    const Words low = _mm256_set1_epi64x(0xFFFFFFFF);
    const Words exponent = _mm256_set1_epi64x(0x4330000000000000);
    const __m256d two52 = _mm256_set1_pd(0x1.0p52);
    const auto to_double = [&](Words small) {  // exact below 2^52
      return _mm256_sub_pd(
          _mm256_castsi256_pd(_mm256_or_si256(small, exponent)), two52);
    };
    const auto uniform = [&](Words w_lo, Words w_hi) {
      const __m256d top = to_double(_mm256_and_si256(w_hi, low));
      const __m256d rest =
          to_double(_mm256_srli_epi64(_mm256_and_si256(w_lo, low), 11));
      return _mm256_add_pd(_mm256_mul_pd(top, _mm256_set1_pd(0x1.0p-32)),
                           _mm256_mul_pd(rest, _mm256_set1_pd(0x1.0p-53)));
    };
    const __m256d d0 = uniform(c0, c1), d1 = uniform(c2, c3);
    const __m256d even = _mm256_unpacklo_pd(d0, d1);  // [a0 b0 a2 b2]
    const __m256d odd = _mm256_unpackhi_pd(d0, d1);   // [a1 b1 a3 b3]
    const auto store = [](std::uint64_t* p, __m256d v) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(p),
                          _mm256_castpd_si256(v));
    };
    store(out, _mm256_permute2f128_pd(even, odd, 0x20));
    store(out + 4, _mm256_permute2f128_pd(even, odd, 0x31));
  }
};

}  // namespace

const KernelSet& avx2_kernel_set() {
  static const KernelSet ks = detail::make_set<Avx2Policy>("avx2");
  return ks;
}

}  // namespace ptsbe::kernels

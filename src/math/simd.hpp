// Lane-width trait classes for the integer-SIMD nonbonded kernels.
//
// Each trait wraps one x86 vector ISA behind the same static interface so
// ff/nonbonded_simd_impl.hpp instantiates once per ISA with no #ifdef in
// the kernel body.  A trait describes a tile *block*: kRows × kCols mask
// lanes evaluated per vector op (lane l covers tile row l / kCols and
// column l % kCols within the block).
//
//   Avx2Traits    4 lanes   1 row × 4 cols  (one tile row per op)
//   Avx512Traits  8 lanes   2 rows × 4 cols (an even/odd row pair per op)
//
// Exactness contract: every double op maps to exactly one IEEE-754
// instruction on the same operands as the scalar kernel — the SIMD TUs are
// compiled with -ffp-contract=off so no mul/add pair fuses into an FMA —
// and the int64 truncating conversion matches cvttsd2si lane for lane
// (including the 0x8000... indefinite result on overflow, which is what
// fixed::truncate_i64 returns for NaN and |t| >= 2^63).  Under that
// contract the kernels are bit-identical to the scalar path for every
// input.
//
// Types:
//   VD    kLanes doubles
//   VI    kLanes int64 (fixed-point quanta)
//   Idx   kLanes int32 gather offsets (low half of a legacy-width vector)
//   Mask  per-lane predicate: all-ones double lanes on AVX2, a
//         compressed __mmask8 on AVX-512.  blend(a, b, m) == m ? b : a.
#pragma once

#include <cstdint>

#include "math/fixed.hpp"

#if defined(__AVX2__)  // -mavx512f implies it, so both traits see this
#include <immintrin.h>

namespace antmd::simd {

struct Avx2Traits {
  static constexpr unsigned kLanes = 4;
  static constexpr unsigned kRows = 1;
  static constexpr unsigned kCols = 4;
  using VD = __m256d;
  using VI = __m256i;
  using Idx = __m128i;
  using Mask = __m256d;

  static VD zero() { return _mm256_setzero_pd(); }
  static VD bcast(double v) { return _mm256_set1_pd(v); }
  static VD bcast_rows(double lo, double /*hi*/) { return _mm256_set1_pd(lo); }
  static VD load_cols(const double* p, unsigned /*c0*/) {
    return _mm256_loadu_pd(p);
  }

  static void store(double* dst, VD v) { _mm256_storeu_pd(dst, v); }
  static VD add(VD a, VD b) { return _mm256_add_pd(a, b); }
  static VD sub(VD a, VD b) { return _mm256_sub_pd(a, b); }
  static VD mul(VD a, VD b) { return _mm256_mul_pd(a, b); }
  static VD div(VD a, VD b) { return _mm256_div_pd(a, b); }
  static VD min(VD a, VD b) { return _mm256_min_pd(a, b); }
  static VD max(VD a, VD b) { return _mm256_max_pd(a, b); }
  static VD round_cur(VD a) {
    return _mm256_round_pd(a, _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
  }

  static Mask cmp_lt(VD a, VD b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static Mask cmp_le(VD a, VD b) { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
  static Mask cmp_gt(VD a, VD b) { return _mm256_cmp_pd(a, b, _CMP_GT_OQ); }
  static Mask cmp_ge(VD a, VD b) { return _mm256_cmp_pd(a, b, _CMP_GE_OQ); }
  static Mask cmp_eq(VD a, VD b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
  /// IEEE != (unordered-true), like the scalar kernel's qq != 0.0.
  static Mask cmp_ne(VD a, VD b) { return _mm256_cmp_pd(a, b, _CMP_NEQ_UQ); }
  static Mask mask_and(Mask a, Mask b) { return _mm256_and_pd(a, b); }
  static Mask mask_or(Mask a, Mask b) { return _mm256_or_pd(a, b); }
  static bool mask_any(Mask m) { return _mm256_movemask_pd(m) != 0; }
  static VD blend(VD a, VD b, Mask m) { return _mm256_blendv_pd(a, b, m); }
  /// m ? acc + c : acc (the blend-the-old-value-back conditional add).
  static VD add_masked(VD acc, VD c, Mask m) {
    return _mm256_blendv_pd(acc, _mm256_add_pd(acc, c), m);
  }
  static Mask mask_from_bits(unsigned bits) {
    const __m256i b = _mm256_set1_epi64x(static_cast<long long>(bits));
    const __m256i lane = _mm256_set_epi64x(8, 4, 2, 1);
    return _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_and_si256(b, lane), lane));
  }

  static Idx idx_cvtt(VD v) { return _mm256_cvttpd_epi32(v); }
  static VD idx_to_pd(Idx v) { return _mm256_cvtepi32_pd(v); }
  static Idx idx_add(Idx a, Idx b) { return _mm_add_epi32(a, b); }
  static Idx idx_mul(Idx a, Idx b) { return _mm_mullo_epi32(a, b); }
  static Idx idx_bcast(int32_t v) { return _mm_set1_epi32(v); }
  static Idx idx_bcast_rows(int32_t lo, int32_t /*hi*/) {
    return _mm_set1_epi32(lo);
  }
  static Idx idx_load_cols(const uint32_t* p, unsigned /*c0*/) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  /// out[k] = per-lane base[idx_l + k] for k = 0..7: each lane's spline bin
  /// is 8 contiguous doubles, so two 32-byte loads per lane + two 4x4
  /// transposes beat sixteen vgatherdpd lane fetches.
  static void load_packed8(const double* base, Idx idx, VD out[8]) {
    alignas(16) int32_t off[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(off), idx);
    for (unsigned half = 0; half < 2; ++half) {
      const unsigned k = half * 4;
      const __m256d r0 = _mm256_loadu_pd(base + off[0] + k);
      const __m256d r1 = _mm256_loadu_pd(base + off[1] + k);
      const __m256d r2 = _mm256_loadu_pd(base + off[2] + k);
      const __m256d r3 = _mm256_loadu_pd(base + off[3] + k);
      const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
      const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
      const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
      const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
      out[k + 0] = _mm256_permute2f128_pd(t0, t2, 0x20);
      out[k + 1] = _mm256_permute2f128_pd(t1, t3, 0x20);
      out[k + 2] = _mm256_permute2f128_pd(t0, t2, 0x31);
      out[k + 3] = _mm256_permute2f128_pd(t1, t3, 0x31);
    }
  }

  /// Truncating double -> int64, cvttsd2si semantics per lane.  Callers
  /// only pass integral values (quantize_round rounds first), so the
  /// magic-number bias conversion is exact whenever |v| < 2^51; larger,
  /// non-finite, or indefinite lanes take the scalar instruction itself.
  static VI cvtt_i64(VD v) {
    const __m256d magic = _mm256_set1_pd(6755399441055744.0);  // 2^52 + 2^51
    const __m256d limit = _mm256_set1_pd(2251799813685248.0);  // 2^51
    const __m256d av = _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
    if (_mm256_movemask_pd(_mm256_cmp_pd(av, limit, _CMP_LT_OQ)) == 0xf) {
      const __m256d x = _mm256_add_pd(v, magic);
      return _mm256_sub_epi64(_mm256_castpd_si256(x),
                              _mm256_castpd_si256(magic));
    }
    alignas(32) double t[kLanes];
    _mm256_store_pd(t, v);
    return _mm256_set_epi64x(
        fixed::truncate_i64(t[3]), fixed::truncate_i64(t[2]),
        fixed::truncate_i64(t[1]), fixed::truncate_i64(t[0]));
  }
  static VI zero_i64() { return _mm256_setzero_si256(); }
  static VI add_i64(VI a, VI b) { return _mm256_add_epi64(a, b); }
  static VI sub_i64(VI a, VI b) { return _mm256_sub_epi64(a, b); }
  static VI and_mask_i64(VI v, Mask m) {
    return _mm256_and_si256(v, _mm256_castpd_si256(m));
  }
  static void store_i64(int64_t* dst, VI v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v);
  }
  /// Horizontal sum of the 4 int64 lanes into sums[0] (kRows == 1).
  static void row_sums_i64(VI v, int64_t sums[kRows]) {
    const __m128i lo = _mm256_castsi256_si128(v);
    const __m128i hi = _mm256_extracti128_si256(v, 1);
    const __m128i s = _mm_add_epi64(lo, hi);
    sums[0] = _mm_cvtsi128_si64(_mm_add_epi64(s, _mm_unpackhi_epi64(s, s)));
  }
};

}  // namespace antmd::simd
#endif  // __AVX2__

#if defined(__AVX512F__) && defined(__AVX512DQ__)
namespace antmd::simd {

struct Avx512Traits {
  static constexpr unsigned kLanes = 8;
  static constexpr unsigned kRows = 2;
  static constexpr unsigned kCols = 4;
  using VD = __m512d;
  using VI = __m512i;
  using Idx = __m256i;
  using Mask = __mmask8;

  static VD zero() { return _mm512_setzero_pd(); }
  static VD bcast(double v) { return _mm512_set1_pd(v); }
  /// Row a in lanes 0-3, row a+1 in lanes 4-7.
  static VD bcast_rows(double lo, double hi) {
    return _mm512_insertf64x4(_mm512_set1_pd(lo), _mm256_set1_pd(hi), 1);
  }
  /// The 4 j-group columns, replicated into both row halves.
  static VD load_cols(const double* p, unsigned /*c0*/) {
    const __m256d v = _mm256_loadu_pd(p);
    return _mm512_insertf64x4(_mm512_castpd256_pd512(v), v, 1);
  }

  static void store(double* dst, VD v) { _mm512_storeu_pd(dst, v); }
  static VD add(VD a, VD b) { return _mm512_add_pd(a, b); }
  static VD sub(VD a, VD b) { return _mm512_sub_pd(a, b); }
  static VD mul(VD a, VD b) { return _mm512_mul_pd(a, b); }
  static VD div(VD a, VD b) { return _mm512_div_pd(a, b); }
  static VD min(VD a, VD b) { return _mm512_min_pd(a, b); }
  static VD max(VD a, VD b) { return _mm512_max_pd(a, b); }
  static VD round_cur(VD a) {
    return _mm512_roundscale_pd(
        a, _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
  }

  static Mask cmp_lt(VD a, VD b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ);
  }
  static Mask cmp_le(VD a, VD b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ);
  }
  static Mask cmp_gt(VD a, VD b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ);
  }
  static Mask cmp_ge(VD a, VD b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ);
  }
  static Mask cmp_eq(VD a, VD b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ);
  }
  static Mask cmp_ne(VD a, VD b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_NEQ_UQ);
  }
  static Mask mask_and(Mask a, Mask b) {
    return static_cast<Mask>(a & b);
  }
  static Mask mask_or(Mask a, Mask b) { return static_cast<Mask>(a | b); }
  static bool mask_any(Mask m) { return m != 0; }
  static VD blend(VD a, VD b, Mask m) {
    return _mm512_mask_blend_pd(m, a, b);
  }
  /// m ? acc + c : acc, fused into one masked add.
  static VD add_masked(VD acc, VD c, Mask m) {
    return _mm512_mask_add_pd(acc, m, acc, c);
  }
  static Mask mask_from_bits(unsigned bits) {
    return static_cast<Mask>(bits);
  }

  static Idx idx_cvtt(VD v) { return _mm512_cvttpd_epi32(v); }
  static VD idx_to_pd(Idx v) { return _mm512_cvtepi32_pd(v); }
  static Idx idx_add(Idx a, Idx b) { return _mm256_add_epi32(a, b); }
  static Idx idx_mul(Idx a, Idx b) { return _mm256_mullo_epi32(a, b); }
  static Idx idx_bcast(int32_t v) { return _mm256_set1_epi32(v); }
  static Idx idx_bcast_rows(int32_t lo, int32_t hi) {
    return _mm256_set_m128i(_mm_set1_epi32(hi), _mm_set1_epi32(lo));
  }
  static Idx idx_load_cols(const uint32_t* p, unsigned /*c0*/) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    return _mm256_set_m128i(v, v);
  }
  /// out[k] = per-lane base[idx_l + k] for k = 0..7: each lane's spline bin
  /// is one 64-byte cache line, so one full-width load per lane + an 8x8
  /// unpack/shuffle transpose beats sixty-four vgatherdpd lane fetches.
  static void load_packed8(const double* base, Idx idx, VD out[8]) {
    alignas(32) int32_t off[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(off), idx);
    const __m512d r0 = _mm512_loadu_pd(base + off[0]);
    const __m512d r1 = _mm512_loadu_pd(base + off[1]);
    const __m512d r2 = _mm512_loadu_pd(base + off[2]);
    const __m512d r3 = _mm512_loadu_pd(base + off[3]);
    const __m512d r4 = _mm512_loadu_pd(base + off[4]);
    const __m512d r5 = _mm512_loadu_pd(base + off[5]);
    const __m512d r6 = _mm512_loadu_pd(base + off[6]);
    const __m512d r7 = _mm512_loadu_pd(base + off[7]);
    const __m512d t0 = _mm512_unpacklo_pd(r0, r1);
    const __m512d t1 = _mm512_unpackhi_pd(r0, r1);
    const __m512d t2 = _mm512_unpacklo_pd(r2, r3);
    const __m512d t3 = _mm512_unpackhi_pd(r2, r3);
    const __m512d t4 = _mm512_unpacklo_pd(r4, r5);
    const __m512d t5 = _mm512_unpackhi_pd(r4, r5);
    const __m512d t6 = _mm512_unpacklo_pd(r6, r7);
    const __m512d t7 = _mm512_unpackhi_pd(r6, r7);
    // 128-bit lane shuffles: u0 holds coefficients 0/4 of lanes 0-3, u1 of
    // lanes 4-7, and so on; a final shuffle splits the coefficient pairs.
    const __m512d u0 = _mm512_shuffle_f64x2(t0, t2, 0x88);
    const __m512d u1 = _mm512_shuffle_f64x2(t4, t6, 0x88);
    const __m512d u2 = _mm512_shuffle_f64x2(t1, t3, 0x88);
    const __m512d u3 = _mm512_shuffle_f64x2(t5, t7, 0x88);
    const __m512d u4 = _mm512_shuffle_f64x2(t0, t2, 0xdd);
    const __m512d u5 = _mm512_shuffle_f64x2(t4, t6, 0xdd);
    const __m512d u6 = _mm512_shuffle_f64x2(t1, t3, 0xdd);
    const __m512d u7 = _mm512_shuffle_f64x2(t5, t7, 0xdd);
    out[0] = _mm512_shuffle_f64x2(u0, u1, 0x88);
    out[1] = _mm512_shuffle_f64x2(u2, u3, 0x88);
    out[2] = _mm512_shuffle_f64x2(u4, u5, 0x88);
    out[3] = _mm512_shuffle_f64x2(u6, u7, 0x88);
    out[4] = _mm512_shuffle_f64x2(u0, u1, 0xdd);
    out[5] = _mm512_shuffle_f64x2(u2, u3, 0xdd);
    out[6] = _mm512_shuffle_f64x2(u4, u5, 0xdd);
    out[7] = _mm512_shuffle_f64x2(u6, u7, 0xdd);
  }

  static VI cvtt_i64(VD v) { return _mm512_cvttpd_epi64(v); }
  static VI zero_i64() { return _mm512_setzero_si512(); }
  static VI add_i64(VI a, VI b) { return _mm512_add_epi64(a, b); }
  static VI sub_i64(VI a, VI b) { return _mm512_sub_epi64(a, b); }
  static VI and_mask_i64(VI v, Mask m) {
    return _mm512_maskz_mov_epi64(m, v);
  }
  static void store_i64(int64_t* dst, VI v) {
    _mm512_storeu_si512(dst, v);
  }
  /// Per-row horizontal sums: lanes 0-3 are row 0, lanes 4-7 row 1.
  static void row_sums_i64(VI v, int64_t sums[kRows]) {
    const __m256i lo = _mm512_castsi512_si256(v);
    const __m256i hi = _mm512_extracti64x4_epi64(v, 1);
    const __m128i s0 = _mm_add_epi64(_mm256_castsi256_si128(lo),
                                     _mm256_extracti128_si256(lo, 1));
    const __m128i s1 = _mm_add_epi64(_mm256_castsi256_si128(hi),
                                     _mm256_extracti128_si256(hi, 1));
    sums[0] = _mm_cvtsi128_si64(_mm_add_epi64(s0, _mm_unpackhi_epi64(s0, s0)));
    sums[1] = _mm_cvtsi128_si64(_mm_add_epi64(s1, _mm_unpackhi_epi64(s1, s1)));
  }
};

}  // namespace antmd::simd
#endif  // __AVX512F__ && __AVX512DQ__

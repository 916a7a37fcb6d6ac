// Accumulator implementations and process-wide dispatch.
//
// Kept in one translation unit with per-function target attributes (the
// src/crypto/aes128_ni.cc idiom) so the rest of the build needs no
// -mavx2/-mavx512f flags: only these functions emit vector instructions,
// and the dispatch gates on the effective CpuFeatures probe before ever
// pointing at them.
//
// Exactness of the vector paths (the whole point — every path must be
// bit-identical to the scalar reference mod 2^128):
//
// Split v and each row word r into 32-bit limbs v0..v3 / r0..r3 (low
// first). The low 128 bits of v*r are sum_{i+l<=3} v_i*r_l * 2^(32(i+l));
// terms with i+l >= 4 wrap off entirely, and of the i+l == 3 products only
// the low 32 bits survive the << 96. Per 32-bit column c we keep one
// 64-bit lane accumulator acc_c of weight 2^(32c), combined once per chunk
// as resp[k] += acc_0 + acc_1*2^32 + acc_2*2^64 + acc_3*2^96 (mod 2^128).
// How much care each column needs follows from its weight:
//
//   acc_2 (weight 2^64): lane overflow carries out at weight 2^128, which
//         is 0 mod 2^128 — so the three i+l == 2 vpmuludq products are
//         added in FULL with ordinary wrapping vpaddq, no splitting.
//   col3 (weight 2^96): only its low 32 bits survive, so all four
//         i+l == 3 products come from one vpmulld against the
//         limb-reversed v pattern, accumulated in wrapping 32-bit lanes
//         (exact mod 2^32).
//   acc_0/acc_1 (weights 1, 2^32): overflow would lose real bits, so the
//         i+l <= 1 products are split lo32 -> acc_c, hi32 -> acc_(c+1)
//         (lo + hi*2^32 reassembles each product exactly) and the chunk
//         length is bounded: acc_1 gains at most 3*(2^32-1) per row, so
//         flushing every kFlushRows = 2^20 rows leaves >2^10 headroom.

#include "src/kernels/accumulate.h"

#include "src/common/env.h"

#include <atomic>
#include <cstdlib>

#include "src/common/cpuid.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define GPUDPF_HAVE_ACCUM_SIMD_BUILD 1
#include <immintrin.h>
#endif

namespace gpudpf {
namespace {

// The seed's reference hot loop, verbatim: the bit-identity anchor.
void AccumulateScalar(const u128* rows, std::size_t w, const u128* shares,
                      std::uint64_t count, u128* resp) {
    for (std::uint64_t j = 0; j < count; ++j, rows += w) {
        const u128 v = shares[j];
        if (v == 0) continue;
        for (std::size_t k = 0; k < w; ++k) resp[k] += v * rows[k];
    }
}

#ifdef GPUDPF_HAVE_ACCUM_SIMD_BUILD

// Rows between accumulator flushes, bounding the exact accumulators (see
// file header). Small enough that a test can cross the boundary with a
// ~16 MiB shares buffer.
constexpr std::uint64_t kFlushRows = std::uint64_t{1} << 20;

#define GPUDPF_AVX2_TARGET __attribute__((target("avx2")))
#define GPUDPF_AVX512_TARGET __attribute__((target("avx512f")))

// unpacklo/hi_epi64 interleave within each 128-bit half, so 64-bit lane i
// of the unpacked row registers holds entry word kLaneWord4[i] (AVX2,
// 4-word blocks) / kLaneWord8[i] (AVX-512, 8-word blocks).
constexpr int kLaneWord4[4] = {0, 2, 1, 3};
constexpr int kLaneWord8[8] = {0, 4, 1, 5, 2, 6, 3, 7};

// The AVX-512 blocks spell their shuffles, unpacks, shifts and multiplies
// as all-lanes zero-masked intrinsics: they compile to the same unmasked
// instructions, while GCC 12's unmasked wrappers pass an undefined vector
// through and trip -Wmaybe-uninitialized.
constexpr __mmask16 kAll32 = 0xFFFF;
constexpr __mmask8 kAll64 = 0xFF;

// One 4-word block over [0, count) rows, count <= kFlushRows: rows points
// at the block's first word in row 0 and strides by the full row width w.
GPUDPF_AVX2_TARGET void Avx2Block(const u128* rows, std::size_t w,
                                  const u128* shares, std::uint64_t count,
                                  u128* resp) {
    const __m256i mask32 = _mm256_set1_epi64x(0xffffffffll);
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    // Column-3 products in wrapping 32-bit lanes, in the untransposed
    // element order of the two row loads (words 0,1 / words 2,3).
    __m256i c3a = _mm256_setzero_si256();
    __m256i c3b = _mm256_setzero_si256();
    const std::uint32_t* share_limbs =
        reinterpret_cast<const std::uint32_t*>(shares);
    const std::uint64_t* share_words =
        reinterpret_cast<const std::uint64_t*>(shares);
    for (std::uint64_t j = 0; j < count; ++j, rows += w) {
        // Zero test on the 64-bit halves straight from memory: keeps the
        // share out of vector registers (no xmm->stack->GPR round trip on
        // the loop's hot edge).
        if ((share_words[2 * j] | share_words[2 * j + 1]) == 0) continue;
        const __m256i m0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(rows));
        const __m256i m1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(rows + 2));
        // Column 3 first, so pat dies before the schoolbook temps peak:
        // [v3 v2 v1 v0 | v3 v2 v1 v0] aligns limb l of each stored word
        // with v_(3-l), so one vpmulld yields every i+l == 3 product
        // (low halves: v3*r0 + v2*r1 + v1*r2 + v0*r3 mod 2^32).
        const __m256i pat = _mm256_shuffle_epi32(
            _mm256_broadcastsi128_si256(_mm_loadu_si128(
                reinterpret_cast<const __m128i*>(&shares[j]))),
            0x1b);
        c3a = _mm256_add_epi32(c3a, _mm256_mullo_epi32(m0, pat));
        c3b = _mm256_add_epi32(c3b, _mm256_mullo_epi32(m1, pat));
        const __m256i lo = _mm256_unpacklo_epi64(m0, m1);  // limbs 0,1
        const __m256i hi = _mm256_unpackhi_epi64(m0, m1);  // limbs 2,3
        // Limb 1 of each word into the low lane half (upper half junk,
        // ignored by vpmuludq).
        const __m256i l1 = _mm256_shuffle_epi32(lo, 0xf5);
        // v limbs broadcast from memory; vpmuludq only reads the low 32
        // bits of each 64-bit lane, so the duplicated upper halves are
        // harmless.
        const __m256i b0 = _mm256_set1_epi32(
            static_cast<int>(share_limbs[4 * j]));
        const __m256i b1 = _mm256_set1_epi32(
            static_cast<int>(share_limbs[4 * j + 1]));
        const __m256i b2 = _mm256_set1_epi32(
            static_cast<int>(share_limbs[4 * j + 2]));
        // Columns 0 and 1: exact split accumulation.
        const __m256i p00 = _mm256_mul_epu32(b0, lo);
        const __m256i p01 = _mm256_mul_epu32(b0, l1);
        const __m256i p10 = _mm256_mul_epu32(b1, lo);
        acc0 = _mm256_add_epi64(acc0, _mm256_and_si256(p00, mask32));
        acc1 = _mm256_add_epi64(acc1, _mm256_srli_epi64(p00, 32));
        acc1 = _mm256_add_epi64(acc1, _mm256_and_si256(p01, mask32));
        acc1 = _mm256_add_epi64(acc1, _mm256_and_si256(p10, mask32));
        acc2 = _mm256_add_epi64(acc2, _mm256_srli_epi64(p01, 32));
        acc2 = _mm256_add_epi64(acc2, _mm256_srli_epi64(p10, 32));
        // Column 2: full products, wrapping adds (overflow wraps off at
        // weight 2^128).
        acc2 = _mm256_add_epi64(acc2, _mm256_mul_epu32(b0, hi));
        acc2 = _mm256_add_epi64(acc2, _mm256_mul_epu32(b1, l1));
        acc2 = _mm256_add_epi64(acc2, _mm256_mul_epu32(b2, lo));
    }
    alignas(32) std::uint64_t a0[4], a1[4], a2[4];
    alignas(32) std::uint32_t t3[16];
    _mm256_store_si256(reinterpret_cast<__m256i*>(a0), acc0);
    _mm256_store_si256(reinterpret_cast<__m256i*>(a1), acc1);
    _mm256_store_si256(reinterpret_cast<__m256i*>(a2), acc2);
    _mm256_store_si256(reinterpret_cast<__m256i*>(t3), c3a);
    _mm256_store_si256(reinterpret_cast<__m256i*>(t3 + 8), c3b);
    for (int lane = 0; lane < 4; ++lane) {
        const int word = kLaneWord4[lane];
        const std::uint32_t* c3 = t3 + 4 * word;  // t3 is in word order
        const std::uint32_t col3 = c3[0] + c3[1] + c3[2] + c3[3];
        resp[word] += static_cast<u128>(a0[lane]) +
                      (static_cast<u128>(a1[lane]) << 32) +
                      (static_cast<u128>(a2[lane]) << 64) +
                      (static_cast<u128>(col3) << 96);
    }
}

// Scalar pass over the words past the last vector block, all rows: the
// per-(row, word) terms are exactly the reference's.
void AccumulateTailWords(const u128* rows, std::size_t w,
                         std::size_t word_begin, const u128* shares,
                         std::uint64_t count, u128* resp) {
    for (std::uint64_t j = 0; j < count; ++j, rows += w) {
        const u128 v = shares[j];
        if (v == 0) continue;
        for (std::size_t k = word_begin; k < w; ++k) resp[k] += v * rows[k];
    }
}

GPUDPF_AVX2_TARGET void AccumulateAvx2(const u128* rows, std::size_t w,
                                       const u128* shares,
                                       std::uint64_t count, u128* resp) {
    const std::size_t blocks = w / 4;
    std::uint64_t done = 0;
    while (done < count) {
        const std::uint64_t chunk =
            count - done < kFlushRows ? count - done : kFlushRows;
        const u128* chunk_rows = rows + done * w;
        // Strip-mined: each block walks the chunk's rows with its five
        // accumulators in registers. Segments are tile-sized (<= 128 KiB),
        // so the re-walk streams from cache, and consecutive blocks touch
        // disjoint cache lines.
        for (std::size_t b = 0; b < blocks; ++b) {
            Avx2Block(chunk_rows + 4 * b, w, shares + done, chunk,
                      resp + 4 * b);
        }
        AccumulateTailWords(chunk_rows, w, blocks * 4, shares + done, chunk,
                            resp);
        done += chunk;
    }
}

// One 8-word block, the AVX2 scheme over 512-bit registers.
GPUDPF_AVX512_TARGET void Avx512Block(const u128* rows, std::size_t w,
                                      const u128* shares,
                                      std::uint64_t count, u128* resp) {
    const __m512i mask32 = _mm512_set1_epi64(0xffffffffll);
    __m512i acc0 = _mm512_setzero_si512();
    __m512i acc1 = _mm512_setzero_si512();
    __m512i acc2 = _mm512_setzero_si512();
    __m512i c3a = _mm512_setzero_si512();
    __m512i c3b = _mm512_setzero_si512();
    const std::uint32_t* share_limbs =
        reinterpret_cast<const std::uint32_t*>(shares);
    const std::uint64_t* share_words =
        reinterpret_cast<const std::uint64_t*>(shares);
    for (std::uint64_t j = 0; j < count; ++j, rows += w) {
        if ((share_words[2 * j] | share_words[2 * j + 1]) == 0) continue;
        const __m512i b0 = _mm512_set1_epi32(
            static_cast<int>(share_limbs[4 * j]));
        const __m512i b1 = _mm512_set1_epi32(
            static_cast<int>(share_limbs[4 * j + 1]));
        const __m512i b2 = _mm512_set1_epi32(
            static_cast<int>(share_limbs[4 * j + 2]));
        const __m512i pat = _mm512_maskz_shuffle_epi32(
            kAll32,
            _mm512_maskz_broadcast_i32x4(
                kAll32, _mm_loadu_si128(
                            reinterpret_cast<const __m128i*>(&shares[j]))),
            static_cast<_MM_PERM_ENUM>(0x1b));
        const __m512i m0 = _mm512_loadu_si512(rows);
        const __m512i m1 = _mm512_loadu_si512(rows + 4);
        const __m512i lo = _mm512_maskz_unpacklo_epi64(kAll64, m0, m1);
        const __m512i hi = _mm512_maskz_unpackhi_epi64(kAll64, m0, m1);
        const __m512i l1 = _mm512_maskz_shuffle_epi32(
            kAll32, lo, static_cast<_MM_PERM_ENUM>(0xf5));
        const __m512i p00 = _mm512_maskz_mul_epu32(kAll64, b0, lo);
        const __m512i p01 = _mm512_maskz_mul_epu32(kAll64, b0, l1);
        const __m512i p10 = _mm512_maskz_mul_epu32(kAll64, b1, lo);
        acc0 = _mm512_add_epi64(acc0, _mm512_and_si512(p00, mask32));
        acc1 = _mm512_add_epi64(acc1,
                                _mm512_maskz_srli_epi64(kAll64, p00, 32));
        acc1 = _mm512_add_epi64(acc1, _mm512_and_si512(p01, mask32));
        acc1 = _mm512_add_epi64(acc1, _mm512_and_si512(p10, mask32));
        acc2 = _mm512_add_epi64(acc2,
                                _mm512_maskz_srli_epi64(kAll64, p01, 32));
        acc2 = _mm512_add_epi64(acc2,
                                _mm512_maskz_srli_epi64(kAll64, p10, 32));
        acc2 = _mm512_add_epi64(acc2,
                                _mm512_maskz_mul_epu32(kAll64, b0, hi));
        acc2 = _mm512_add_epi64(acc2,
                                _mm512_maskz_mul_epu32(kAll64, b1, l1));
        acc2 = _mm512_add_epi64(acc2,
                                _mm512_maskz_mul_epu32(kAll64, b2, lo));
        c3a = _mm512_add_epi32(c3a, _mm512_mullo_epi32(m0, pat));
        c3b = _mm512_add_epi32(c3b, _mm512_mullo_epi32(m1, pat));
    }
    alignas(64) std::uint64_t a0[8], a1[8], a2[8];
    alignas(64) std::uint32_t t3[32];
    _mm512_store_si512(a0, acc0);
    _mm512_store_si512(a1, acc1);
    _mm512_store_si512(a2, acc2);
    _mm512_store_si512(t3, c3a);
    _mm512_store_si512(t3 + 16, c3b);
    for (int lane = 0; lane < 8; ++lane) {
        const int word = kLaneWord8[lane];
        const std::uint32_t* c3 = t3 + 4 * word;
        const std::uint32_t col3 = c3[0] + c3[1] + c3[2] + c3[3];
        resp[word] += static_cast<u128>(a0[lane]) +
                      (static_cast<u128>(a1[lane]) << 32) +
                      (static_cast<u128>(a2[lane]) << 64) +
                      (static_cast<u128>(col3) << 96);
    }
}

GPUDPF_AVX512_TARGET void AccumulateAvx512(const u128* rows, std::size_t w,
                                           const u128* shares,
                                           std::uint64_t count, u128* resp) {
    const std::size_t blocks8 = w / 8;
    const bool half_block = (w % 8) >= 4;  // one AVX2 block in the tail
    std::uint64_t done = 0;
    while (done < count) {
        const std::uint64_t chunk =
            count - done < kFlushRows ? count - done : kFlushRows;
        const u128* chunk_rows = rows + done * w;
        for (std::size_t b = 0; b < blocks8; ++b) {
            Avx512Block(chunk_rows + 8 * b, w, shares + done, chunk,
                        resp + 8 * b);
        }
        std::size_t word = blocks8 * 8;
        if (half_block) {
            Avx2Block(chunk_rows + word, w, shares + done, chunk,
                      resp + word);
            word += 4;
        }
        AccumulateTailWords(chunk_rows, w, word, shares + done, chunk, resp);
        done += chunk;
    }
}

#define GPUDPF_IFMA_TARGET __attribute__((target("avx512f,avx512ifma")))

// IFMA variant of the AVX-512 path, used when the host has AVX512-IFMA
// (vpmadd52luq/huq: one-uop 52x52 -> low/high-52 multiply-accumulate).
// Radix-2^52 schoolbook: v = v0 + v1*2^52 + v2*2^104 (r likewise, v2/r2
// 24 bits), and v*r mod 2^128 needs only columns 0..2:
//
//   c0 += lo52(v0*r0)
//   c1 += hi52(v0*r0) + lo52(v0*r1) + lo52(v1*r0)
//   c2 += hi52(v0*r1) + hi52(v1*r0) + lo52(v0*r2) + lo52(v1*r1)
//       + lo52(v2*r0)
//
// Every dropped term carries weight >= 2^156 and the 104..155-bit span of
// c2 shifts out of the (u128)c2 << 104 combine, so the sum is exact mod
// 2^128 — nine vpmadd52 per row replace all multiply/split/add traffic.
// vpmadd52 reads only the low 52 bits of each operand, so the limb splits
// need no masking: limb 0 is the raw low word, limb 1 is
// (lo >> 52) | (hi << 12) with the high junk ignored, limb 2 is hi >> 40.
// Each product term keeps its own accumulator register: vpmadd52 has
// ~4-cycle latency, so funneling a column's terms through one register
// serializes rows on that chain — nine independent chains keep both FMA
// ports fed. Every term accumulates < 2^52 per row, so flushing every
// 2^11 rows keeps each register below 2^63; the per-column sums happen in
// u128 at combine time.
constexpr std::uint64_t kIfmaFlushRows = std::uint64_t{1} << 11;

GPUDPF_IFMA_TARGET void Ifma512Block(const u128* rows, std::size_t w,
                                     const u128* shares, std::uint64_t count,
                                     u128* resp) {
    __m512i t00lo = _mm512_setzero_si512();
    __m512i t00hi = _mm512_setzero_si512();
    __m512i t01lo = _mm512_setzero_si512();
    __m512i t10lo = _mm512_setzero_si512();
    __m512i t01hi = _mm512_setzero_si512();
    __m512i t10hi = _mm512_setzero_si512();
    __m512i t02lo = _mm512_setzero_si512();
    __m512i t11lo = _mm512_setzero_si512();
    __m512i t20lo = _mm512_setzero_si512();
    const std::uint64_t* share_words =
        reinterpret_cast<const std::uint64_t*>(shares);
    for (std::uint64_t j = 0; j < count; ++j, rows += w) {
        const std::uint64_t vlo = share_words[2 * j];
        const std::uint64_t vhi = share_words[2 * j + 1];
        if ((vlo | vhi) == 0) continue;
        // v limbs broadcast; only b1 needs assembling (b0's and b2's junk
        // bits fall outside vpmadd52's 52-bit operand window).
        const __m512i b0 = _mm512_set1_epi64(static_cast<long long>(vlo));
        const __m512i b1 = _mm512_set1_epi64(
            static_cast<long long>((vlo >> 52) | (vhi << 12)));
        const __m512i b2 = _mm512_set1_epi64(static_cast<long long>(vhi >> 40));
        const __m512i m0 = _mm512_loadu_si512(rows);
        const __m512i m1 = _mm512_loadu_si512(rows + 4);
        const __m512i lo = _mm512_maskz_unpacklo_epi64(kAll64, m0, m1);
        const __m512i hi = _mm512_maskz_unpackhi_epi64(kAll64, m0, m1);
        const __m512i r1 =
            _mm512_or_si512(_mm512_maskz_srli_epi64(kAll64, lo, 52),
                            _mm512_maskz_slli_epi64(kAll64, hi, 12));
        const __m512i r2 = _mm512_maskz_srli_epi64(kAll64, hi, 40);
        t00lo = _mm512_madd52lo_epu64(t00lo, b0, lo);
        t00hi = _mm512_madd52hi_epu64(t00hi, b0, lo);
        t01lo = _mm512_madd52lo_epu64(t01lo, b0, r1);
        t10lo = _mm512_madd52lo_epu64(t10lo, b1, lo);
        t01hi = _mm512_madd52hi_epu64(t01hi, b0, r1);
        t10hi = _mm512_madd52hi_epu64(t10hi, b1, lo);
        t02lo = _mm512_madd52lo_epu64(t02lo, b0, r2);
        t11lo = _mm512_madd52lo_epu64(t11lo, b1, r1);
        t20lo = _mm512_madd52lo_epu64(t20lo, b2, lo);
    }
    alignas(64) std::uint64_t a[9][8];
    _mm512_store_si512(a[0], t00lo);
    _mm512_store_si512(a[1], t00hi);
    _mm512_store_si512(a[2], t01lo);
    _mm512_store_si512(a[3], t10lo);
    _mm512_store_si512(a[4], t01hi);
    _mm512_store_si512(a[5], t10hi);
    _mm512_store_si512(a[6], t02lo);
    _mm512_store_si512(a[7], t11lo);
    _mm512_store_si512(a[8], t20lo);
    for (int lane = 0; lane < 8; ++lane) {
        const int word = kLaneWord8[lane];
        const u128 c1 = static_cast<u128>(a[1][lane]) + a[2][lane] +
                        a[3][lane];
        const u128 c2 = static_cast<u128>(a[4][lane]) + a[5][lane] +
                        a[6][lane] + a[7][lane] + a[8][lane];
        resp[word] += static_cast<u128>(a[0][lane]) + (c1 << 52) +
                      (c2 << 104);
    }
}

GPUDPF_IFMA_TARGET void AccumulateAvx512Ifma(const u128* rows, std::size_t w,
                                             const u128* shares,
                                             std::uint64_t count,
                                             u128* resp) {
    const std::size_t blocks8 = w / 8;
    const bool half_block = (w % 8) >= 4;
    std::uint64_t done = 0;
    while (done < count) {
        const std::uint64_t chunk =
            count - done < kIfmaFlushRows ? count - done : kIfmaFlushRows;
        const u128* chunk_rows = rows + done * w;
        for (std::size_t b = 0; b < blocks8; ++b) {
            Ifma512Block(chunk_rows + 8 * b, w, shares + done, chunk,
                         resp + 8 * b);
        }
        std::size_t word = blocks8 * 8;
        if (half_block) {
            Avx2Block(chunk_rows + word, w, shares + done, chunk,
                      resp + word);
            word += 4;
        }
        AccumulateTailWords(chunk_rows, w, word, shares + done, chunk, resp);
        done += chunk;
    }
}

#endif  // GPUDPF_HAVE_ACCUM_SIMD_BUILD

// Process-wide dispatch target of AccumulateSegment. Two atomics (function
// pointer + ISA tag) set together; both lazily initialized from
// DefaultAccumulateIsa on first use, and every initializer computes the
// same values, so the pair is consistent for any interleaving.
std::atomic<AccumulateFn> g_accumulate_fn{nullptr};
std::atomic<int> g_accumulate_isa{-1};

}  // namespace

const char* AccumulateIsaName(AccumulateIsa isa) {
    switch (isa) {
        case AccumulateIsa::kScalar:
            return "scalar";
        case AccumulateIsa::kAvx2:
            return "avx2";
        case AccumulateIsa::kAvx512:
            return "avx512";
    }
    return "unknown";
}

bool ParseAccumulateIsa(const std::string& name, AccumulateIsa* out) {
    if (name == "scalar") {
        *out = AccumulateIsa::kScalar;
        return true;
    }
    if (name == "avx2") {
        *out = AccumulateIsa::kAvx2;
        return true;
    }
    if (name == "avx512") {
        *out = AccumulateIsa::kAvx512;
        return true;
    }
    return false;
}

const std::vector<AccumulateIsa>& AllAccumulateIsas() {
    static const std::vector<AccumulateIsa> isas = {
        AccumulateIsa::kScalar, AccumulateIsa::kAvx2,
        AccumulateIsa::kAvx512};
    return isas;
}

bool AccumulateIsaSupported(AccumulateIsa isa) {
    switch (isa) {
        case AccumulateIsa::kScalar:
            return true;
        case AccumulateIsa::kAvx2:
#ifdef GPUDPF_HAVE_ACCUM_SIMD_BUILD
            return GetCpuFeatures().avx2;
#else
            return false;
#endif
        case AccumulateIsa::kAvx512:
#ifdef GPUDPF_HAVE_ACCUM_SIMD_BUILD
            return GetCpuFeatures().avx512f;
#else
            return false;
#endif
    }
    return false;
}

AccumulateFn GetAccumulateFn(AccumulateIsa isa) {
    if (!AccumulateIsaSupported(isa)) return nullptr;
    switch (isa) {
        case AccumulateIsa::kScalar:
            return &AccumulateScalar;
#ifdef GPUDPF_HAVE_ACCUM_SIMD_BUILD
        case AccumulateIsa::kAvx2:
            return &AccumulateAvx2;
        case AccumulateIsa::kAvx512:
            // Same dispatch name, better multiplier when the host has it.
            return GetCpuFeatures().avx512ifma ? &AccumulateAvx512Ifma
                                               : &AccumulateAvx512;
#else
        default:
            break;
#endif
    }
    return nullptr;
}

AccumulateIsa DefaultAccumulateIsa() {
    static const AccumulateIsa isa = [] {
        AccumulateIsa parsed;
        const char* env = GpudpfEnv("GPUDPF_ACCUMULATE");
        if (env != nullptr && ParseAccumulateIsa(env, &parsed) &&
            AccumulateIsaSupported(parsed)) {
            return parsed;
        }
        // Widest supported path. GPUDPF_FORCE_SCALAR masks the feature
        // probe, so the forced-scalar legs land on kScalar here.
        if (AccumulateIsaSupported(AccumulateIsa::kAvx512)) {
            return AccumulateIsa::kAvx512;
        }
        if (AccumulateIsaSupported(AccumulateIsa::kAvx2)) {
            return AccumulateIsa::kAvx2;
        }
        return AccumulateIsa::kScalar;
    }();
    return isa;
}

AccumulateIsa CurrentAccumulateIsa() {
    const int isa = g_accumulate_isa.load(std::memory_order_acquire);
    if (isa >= 0) return static_cast<AccumulateIsa>(isa);
    const AccumulateIsa def = DefaultAccumulateIsa();
    SetAccumulateIsa(def);
    return def;
}

bool SetAccumulateIsa(AccumulateIsa isa) {
    const AccumulateFn fn = GetAccumulateFn(isa);
    if (fn == nullptr) return false;
    g_accumulate_fn.store(fn, std::memory_order_release);
    g_accumulate_isa.store(static_cast<int>(isa), std::memory_order_release);
    return true;
}

void AccumulateSegment(const u128* rows, std::size_t w, const u128* shares,
                       std::uint64_t count, u128* resp) {
    AccumulateFn fn = g_accumulate_fn.load(std::memory_order_acquire);
    if (fn == nullptr) {
        CurrentAccumulateIsa();  // lazy first-use dispatch
        fn = g_accumulate_fn.load(std::memory_order_acquire);
    }
    fn(rows, w, shares, count, resp);
}

}  // namespace gpudpf

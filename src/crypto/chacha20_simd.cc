// Lane-parallel ChaCha20 DPF level expansion behind Prg::ExpandLevel,
// plus the scalar reference expansions behind Prg::Expand and
// Prg::ExpandWide.
//
// Lane i of state word j holds word j of seed i's block, so the column and
// diagonal quarter-rounds are plain vector add/xor/rotate with no shuffles
// (vprold on AVX-512); only loading the parents and storing the children
// transpose between that layout and memory order. The round body is
// written once over GCC vector extensions and always-inlined into one
// target-attributed block function per ISA (the src/crypto/aes128_ni.cc
// idiom), so the rest of the build needs no -mavx flags and only those
// functions emit vector instructions.
//
// Transpose: a u128 seed in memory is its key words 0-3 (little-endian
// 32-bit words, low first). Loading four registers r0..r3 of consecutive
// seeds puts seed 4j+k (AVX-512) or 2j+k (AVX2) in 128-bit lane k of r_j;
// a 4x4 word transpose inside every 128-bit lane (unpack epi32, then
// epi64) turns them into key-word registers k0..k3 whose element (lane k,
// slot j) belongs to that same seed. ChaCha is lane-wise, so the output
// words 0-3 (left child) and 4-7 (right child) go back through the same
// self-inverse transpose and land in memory order, one register of lefts
// and one of rights per r_j; a two-source 64-bit permute then interleaves
// them into the next level's L0 R0 L1 R1 ... order.
//
// DPF correction: a parent's control bit t is its LSB, i.e. bit 0 of key
// word 0. Right after the transpose, m = 0 - (k0 & 1) is all ones in every
// lane whose parent has t set, and k0 &= ~1 gives the seed the PRG keys
// on. After the rounds, each child word w is xored with m & cw[w], the
// broadcast correction word, so no lane ever branches on t.

#include "src/crypto/chacha20_simd.h"

#include <cstdint>
#include <cstring>

#include "src/common/cpuid.h"
#include "src/crypto/chacha20.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define GPUDPF_HAVE_CHACHA_SIMD_BUILD 1
#include <immintrin.h>
#endif

namespace gpudpf {
namespace {

// RFC 8439 "expand 32-byte k" constants and the PRG's two nonces.
constexpr std::uint32_t kSigma[4] = {0x61707865u, 0x3320646eu, 0x79622d32u,
                                     0x6b206574u};
constexpr std::uint32_t kExpandNonce[3] = {0x44504600u, 0, 0};  // "DPF"
constexpr std::uint32_t kWideNonce[3] = {0x57494445u, 0, 0};    // "WIDE"

// Repeats the 128-bit seed (words low first) to fill the 256-bit key
// (standard widening for 128-bit-security use).
void SeedToKey(u128 seed, std::uint32_t key[8]) {
    for (int j = 0; j < 4; ++j) {
        key[j] = static_cast<std::uint32_t>(seed >> (32 * j));
        key[4 + j] = key[j];
    }
}

// Output words w[0..3] as one u128, w[0] least significant.
u128 WordsToU128(const std::uint32_t w[4]) {
    return (static_cast<u128>(w[3]) << 96) | (static_cast<u128>(w[2]) << 64) |
           (static_cast<u128>(w[1]) << 32) | w[0];
}

// Scalar loop over the reference expansion plus the masked correction.
// Every level path reads and writes the caller's buffers through memcpy,
// so they need no alignment.
void ExpandLevelScalar(const u128* parents, std::size_t n, u128 cw_left,
                       u128 cw_right, u128* children) {
    for (std::size_t i = 0; i < n; ++i) {
        u128 parent;
        std::memcpy(&parent, parents + i, sizeof(parent));
        const u128 mask = LsbMask(parent);
        u128 pair[2];
        ChachaExpandScalar(ClearLsb(parent), &pair[0], &pair[1]);
        pair[0] ^= mask & cw_left;
        pair[1] ^= mask & cw_right;
        std::memcpy(children + 2 * i, pair, sizeof(pair));
    }
}

#ifdef GPUDPF_HAVE_CHACHA_SIMD_BUILD

#define GPUDPF_AVX2_TARGET __attribute__((target("avx2")))
#define GPUDPF_AVX512_TARGET __attribute__((target("avx512f")))
#define GPUDPF_ALWAYS_INLINE __attribute__((always_inline)) inline

using U32x8 = std::uint32_t __attribute__((vector_size(32)));
using U32x16 = std::uint32_t __attribute__((vector_size(64)));

// The round body works on references only: a vector passed or returned by
// value outside its ISA's target would change the calling convention.
template <int K, typename V>
GPUDPF_ALWAYS_INLINE void Rotl(V& x) {
    x = (x << K) | (x >> (32 - K));
}

template <typename V>
GPUDPF_ALWAYS_INLINE void QuarterRound(V& a, V& b, V& c, V& d) {
    a += b; d ^= a; Rotl<16>(d);
    c += d; b ^= c; Rotl<12>(b);
    a += b; d ^= a; Rotl<8>(d);
    c += d; b ^= c; Rotl<7>(b);
}

// ChaCha20 over one lane block: key[0..3] hold seed words 0-3 (the key is
// the seed repeated), out[0..7] receive output words 0-7 — left child in
// 0-3, right child in 4-7. Words 8-15 never leave the rounds.
template <typename V>
GPUDPF_ALWAYS_INLINE void ChachaLanes(const V (&key)[4], V (&out)[8]) {
    const V zero{};
    V x[16] = {zero + kSigma[0],       zero + kSigma[1], zero + kSigma[2],
               zero + kSigma[3],       key[0],           key[1],
               key[2],                 key[3],           key[0],
               key[1],                 key[2],           key[3],
               zero,                   zero + kExpandNonce[0],
               zero + kExpandNonce[1], zero + kExpandNonce[2]};
    for (int i = 0; i < 10; ++i) {
        QuarterRound(x[0], x[4], x[8], x[12]);
        QuarterRound(x[1], x[5], x[9], x[13]);
        QuarterRound(x[2], x[6], x[10], x[14]);
        QuarterRound(x[3], x[7], x[11], x[15]);
        QuarterRound(x[0], x[5], x[10], x[15]);
        QuarterRound(x[1], x[6], x[11], x[12]);
        QuarterRound(x[2], x[7], x[8], x[13]);
        QuarterRound(x[3], x[4], x[9], x[14]);
    }
    for (int j = 0; j < 4; ++j) {
        out[j] = x[j] + kSigma[j];
        out[4 + j] = x[4 + j] + key[j];
    }
}

// One packed level over a lane block: splits the control bit off key word
// 0, runs the rounds and applies the masked correction words (cw[0..3]
// left, cw[4..7] right, as 32-bit words low first) to out.
template <typename V>
GPUDPF_ALWAYS_INLINE void ChachaLevelLanes(V (&key)[4],
                                           const std::uint32_t (&cw)[8],
                                           V (&out)[8]) {
    const V zero{};
    const V mask = zero - (key[0] & 1u);
    key[0] &= ~1u;
    ChachaLanes(key, out);
    for (int j = 0; j < 8; ++j) out[j] ^= mask & cw[j];
}

// 4x4 transpose of 32-bit words inside every 128-bit lane. The AVX-512
// form spells the unpacks as all-lanes zero-masked intrinsics: they
// compile to the same unmasked instructions, while GCC's unmasked
// wrappers pass an undefined vector through and trip
// -Wmaybe-uninitialized.
GPUDPF_AVX512_TARGET GPUDPF_ALWAYS_INLINE void Transpose4(U32x16 (&r)[4]) {
    constexpr __mmask16 kAll32 = 0xFFFF;
    constexpr __mmask8 kAll64 = 0xFF;
    const __m512i r0 = (__m512i)r[0];
    const __m512i r1 = (__m512i)r[1];
    const __m512i r2 = (__m512i)r[2];
    const __m512i r3 = (__m512i)r[3];
    const __m512i t0 = _mm512_maskz_unpacklo_epi32(kAll32, r0, r1);
    const __m512i t1 = _mm512_maskz_unpackhi_epi32(kAll32, r0, r1);
    const __m512i t2 = _mm512_maskz_unpacklo_epi32(kAll32, r2, r3);
    const __m512i t3 = _mm512_maskz_unpackhi_epi32(kAll32, r2, r3);
    r[0] = (U32x16)_mm512_maskz_unpacklo_epi64(kAll64, t0, t2);
    r[1] = (U32x16)_mm512_maskz_unpackhi_epi64(kAll64, t0, t2);
    r[2] = (U32x16)_mm512_maskz_unpacklo_epi64(kAll64, t1, t3);
    r[3] = (U32x16)_mm512_maskz_unpackhi_epi64(kAll64, t1, t3);
}

GPUDPF_AVX2_TARGET GPUDPF_ALWAYS_INLINE void Transpose4(U32x8 (&r)[4]) {
    const __m256i t0 = _mm256_unpacklo_epi32((__m256i)r[0], (__m256i)r[1]);
    const __m256i t1 = _mm256_unpackhi_epi32((__m256i)r[0], (__m256i)r[1]);
    const __m256i t2 = _mm256_unpacklo_epi32((__m256i)r[2], (__m256i)r[3]);
    const __m256i t3 = _mm256_unpackhi_epi32((__m256i)r[2], (__m256i)r[3]);
    r[0] = (U32x8)_mm256_unpacklo_epi64(t0, t2);
    r[1] = (U32x8)_mm256_unpackhi_epi64(t0, t2);
    r[2] = (U32x8)_mm256_unpacklo_epi64(t1, t3);
    r[3] = (U32x8)_mm256_unpackhi_epi64(t1, t3);
}

// One full lane block: sizeof(V) / 4 packed parents in, twice as many
// corrected children out, interleaved. The two entry points differ only in
// their target attribute and the interleave, which a template cannot vary,
// so each spells the load/rounds/store sequence out.
GPUDPF_AVX512_TARGET void Block16(const u128* parents,
                                  const std::uint32_t (&cw)[8],
                                  u128* children) {
    U32x16 key[4];
    std::memcpy(key, parents, sizeof(key));
    Transpose4(key);
    U32x16 out[8];
    ChachaLevelLanes(key, cw, out);
    U32x16 left[4] = {out[0], out[1], out[2], out[3]};
    U32x16 right[4] = {out[4], out[5], out[6], out[7]};
    Transpose4(left);
    Transpose4(right);
    // left[j] / right[j] hold the children of parents 4j..4j+3, one per
    // 128-bit lane; 64-bit index i < 8 picks from left, 8 + i from right.
    constexpr __mmask8 kAll64 = 0xFF;
    const __m512i lo_idx = _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0);
    const __m512i hi_idx = _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4);
    __m512i pairs[8];
    for (int j = 0; j < 4; ++j) {
        pairs[2 * j] = _mm512_maskz_permutex2var_epi64(
            kAll64, (__m512i)left[j], lo_idx, (__m512i)right[j]);
        pairs[2 * j + 1] = _mm512_maskz_permutex2var_epi64(
            kAll64, (__m512i)left[j], hi_idx, (__m512i)right[j]);
    }
    std::memcpy(children, pairs, sizeof(pairs));
}

GPUDPF_AVX2_TARGET void Block8(const u128* parents,
                               const std::uint32_t (&cw)[8], u128* children) {
    U32x8 key[4];
    std::memcpy(key, parents, sizeof(key));
    Transpose4(key);
    U32x8 out[8];
    ChachaLevelLanes(key, cw, out);
    U32x8 left[4] = {out[0], out[1], out[2], out[3]};
    U32x8 right[4] = {out[4], out[5], out[6], out[7]};
    Transpose4(left);
    Transpose4(right);
    // left[j] / right[j] hold the children of parents 2j and 2j+1.
    __m256i pairs[8];
    for (int j = 0; j < 4; ++j) {
        pairs[2 * j] = _mm256_permute2x128_si256((__m256i)left[j],
                                                 (__m256i)right[j], 0x20);
        pairs[2 * j + 1] = _mm256_permute2x128_si256(
            (__m256i)left[j], (__m256i)right[j], 0x31);
    }
    std::memcpy(children, pairs, sizeof(pairs));
}

// Full blocks straight from the caller's buffers; a partial last block
// (and a whole level narrower than one vector) through zero-padded copies.
template <std::size_t kLanes>
void ExpandLevelLanes(void (*block)(const u128*, const std::uint32_t (&)[8],
                                    u128*),
                      const u128* parents, std::size_t n, u128 cw_left,
                      u128 cw_right, u128* children) {
    std::uint32_t cw[8];
    for (int j = 0; j < 4; ++j) {
        cw[j] = static_cast<std::uint32_t>(cw_left >> (32 * j));
        cw[4 + j] = static_cast<std::uint32_t>(cw_right >> (32 * j));
    }
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        block(parents + i, cw, children + 2 * i);
    }
    if (i == n) return;
    u128 pad_parents[kLanes] = {};
    u128 pad_children[2 * kLanes];
    std::memcpy(pad_parents, parents + i, (n - i) * sizeof(u128));
    block(pad_parents, cw, pad_children);
    std::memcpy(children + 2 * i, pad_children, 2 * (n - i) * sizeof(u128));
}

#endif  // GPUDPF_HAVE_CHACHA_SIMD_BUILD

}  // namespace

void ChachaExpandScalar(u128 seed, u128* left, u128* right) {
    std::uint32_t key[8];
    SeedToKey(seed, key);
    std::uint32_t out[16];
    Chacha20Block(key, 0, kExpandNonce, out);
    *left = WordsToU128(out);
    *right = WordsToU128(out + 4);
}

void ChachaExpandWide(u128 seed, u128* out, std::size_t n) {
    std::uint32_t key[8];
    SeedToKey(seed, key);
    std::uint32_t block[16];
    for (std::size_t i = 0; i < n; i += 4) {
        Chacha20Block(key, static_cast<std::uint32_t>(i / 4), kWideNonce,
                      block);
        for (std::size_t j = 0; j < 4 && i + j < n; ++j) {
            out[i + j] = WordsToU128(block + 4 * j);
        }
    }
}

bool ChachaIsaSupported(ChachaIsa isa) {
    switch (isa) {
        case ChachaIsa::kScalar:
            return true;
#ifdef GPUDPF_HAVE_CHACHA_SIMD_BUILD
        case ChachaIsa::kAvx2:
            return GetCpuFeatures().avx2;
        case ChachaIsa::kAvx512:
            return GetCpuFeatures().avx512f;
#else
        default:
            return false;
#endif
    }
    return false;
}

ChachaIsa BestChachaIsa() {
    static const ChachaIsa isa =
        ChachaIsaSupported(ChachaIsa::kAvx512) ? ChachaIsa::kAvx512
        : ChachaIsaSupported(ChachaIsa::kAvx2) ? ChachaIsa::kAvx2
                                               : ChachaIsa::kScalar;
    return isa;
}

void ChachaExpandLevel(ChachaIsa isa, const u128* parents, std::size_t n,
                       u128 cw_left, u128 cw_right, u128* children) {
    switch (isa) {
#ifdef GPUDPF_HAVE_CHACHA_SIMD_BUILD
        case ChachaIsa::kAvx512:
            ExpandLevelLanes<16>(&Block16, parents, n, cw_left, cw_right,
                                 children);
            return;
        case ChachaIsa::kAvx2:
            ExpandLevelLanes<8>(&Block8, parents, n, cw_left, cw_right,
                                children);
            return;
#endif
        default:
            ExpandLevelScalar(parents, n, cw_left, cw_right, children);
            return;
    }
}

}  // namespace gpudpf

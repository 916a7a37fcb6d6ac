#include "src/crypto/prg.h"

#include <algorithm>

#include "src/crypto/chacha20_simd.h"
#include "src/crypto/highwayhash.h"
#include "src/crypto/sha256.h"
#include "src/crypto/siphash.h"

namespace gpudpf {
namespace {

// Fixed, public domain-separation keys for the MMO / keyed-PRF expansions.
// (Public constants are safe here: DPF security rests on seed secrecy.)
constexpr u128 kLeftKey = MakeU128(0x5b1ab6e5cc6b1d43ull, 0x92ab6e13a4f0c9e1ull);
constexpr u128 kRightKey = MakeU128(0x1f83d9abfb41bd6bull, 0x9b05688c2b3e6c1full);

}  // namespace

Prg::Prg(PrfKind kind) : kind_(kind) {
    if (kind_ == PrfKind::kAes128) {
        aes_left_ = std::make_unique<Aes128>(kLeftKey);
        aes_right_ = std::make_unique<Aes128>(kRightKey);
    }
}

void Prg::Expand(u128 seed, u128* left, u128* right) const {
    switch (kind_) {
        case PrfKind::kAes128:
            *left = aes_left_->Mmo(seed);
            *right = aes_right_->Mmo(seed);
            return;
        case PrfKind::kChacha20:
            ChachaExpandScalar(seed, left, right);
            return;
        case PrfKind::kSipHash:
            *left = SipHashPrf(seed, kLeftKey);
            *right = SipHashPrf(seed, kRightKey);
            return;
        case PrfKind::kHighwayHash:
            *left = HighwayHashPrf(seed, kLeftKey);
            *right = HighwayHashPrf(seed, kRightKey);
            return;
        case PrfKind::kSha256: {
            std::uint8_t k[16];
            StoreU128Le(seed, k);
            std::uint8_t m[17];
            StoreU128Le(kLeftKey, m);
            m[16] = 0x01;
            Sha256Digest d = HmacSha256(k, sizeof(k), m, sizeof(m));
            *left = LoadU128Le(d.data());
            StoreU128Le(kRightKey, m);
            m[16] = 0x02;
            d = HmacSha256(k, sizeof(k), m, sizeof(m));
            *right = LoadU128Le(d.data());
            return;
        }
    }
}

void Prg::ExpandLevel(const u128* parents, std::size_t n, u128 cw_left,
                      u128 cw_right, u128* children) const {
    if (kind_ == PrfKind::kChacha20) {
        ChachaExpandLevel(BestChachaIsa(), parents, n, cw_left, cw_right,
                          children);
        return;
    }
    // Expand a chunk into split left/right arrays (MMO pipelined for the
    // AES kind), then correct and interleave it in one masked pass.
    constexpr std::size_t kChunk = 64;
    u128 seeds[kChunk];
    u128 lefts[kChunk];
    u128 rights[kChunk];
    for (std::size_t base = 0; base < n; base += kChunk) {
        const std::size_t m = std::min(kChunk, n - base);
        for (std::size_t i = 0; i < m; ++i) {
            seeds[i] = ClearLsb(parents[base + i]);
        }
        if (kind_ == PrfKind::kAes128) {
            MmoExpandBatch(*aes_left_, *aes_right_, seeds, m, lefts, rights);
        } else {
            for (std::size_t i = 0; i < m; ++i) {
                Expand(seeds[i], &lefts[i], &rights[i]);
            }
        }
        u128* out = children + 2 * base;
        for (std::size_t i = 0; i < m; ++i) {
            const u128 mask = LsbMask(parents[base + i]);
            out[2 * i] = lefts[i] ^ (mask & cw_left);
            out[2 * i + 1] = rights[i] ^ (mask & cw_right);
        }
    }
}

void Prg::ExpandWide(u128 seed, u128* out, std::size_t n) const {
    if (kind_ == PrfKind::kChacha20) {
        ChachaExpandWide(seed, out, n);
        return;
    }
    if (kind_ == PrfKind::kAes128) {
        // CTR-mode under a per-seed schedule would be faster, but the fixed
        // key MMO keeps parity with the tree expansion path.
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = aes_left_->Mmo(seed + static_cast<u128>(2 * i + 1));
        }
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = PrfEval(kind_, seed, static_cast<u128>(i) + kLeftKey);
    }
}

int Prg::PrimitiveCallsPerExpand() const {
    return kind_ == PrfKind::kChacha20 ? 1 : 2;
}

}  // namespace gpudpf

// AES-128 block cipher (encrypt-only), table-based software implementation
// with an AES-NI batched fast path.
//
// The DPF pseudorandom generator uses AES in a fixed-key Matyas-Meyer-Oseas
// construction (AES_k(x) ^ x), matching the CPU baseline's use of AES-NI
// (paper Section 3.2.6). The scalar EncryptBlock path is the table-based
// software implementation validated against the FIPS-197 test vectors; the
// batched entry points below dispatch to hardware AES-NI at runtime
// (src/crypto/aes128_ni.cc) when the host supports it and
// GPUDPF_FORCE_SCALAR is not set, and are bit-identical to the scalar path
// either way. The software path is NOT constant-time; see DESIGN.md
// security caveat.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/common/u128.h"

namespace gpudpf {

class Aes128 {
  public:
    // Expands the 128-bit key into the 11 round keys.
    explicit Aes128(u128 key);

    // Encrypts one 16-byte block (table-based software path).
    u128 EncryptBlock(u128 plaintext) const;

    // Encrypts `n` blocks, AES-NI-pipelined (4-8 blocks in flight) when the
    // host supports it, scalar otherwise. Bit-identical to EncryptBlock.
    void EncryptBlocks(const u128* in, u128* out, std::size_t n) const;

    // Fixed-key MMO compression: AES_k(x) ^ x. One-way even given k.
    u128 Mmo(u128 x) const { return EncryptBlock(x) ^ x; }

    // True when the batched entry points run on hardware AES-NI (host
    // supports it and the forced-scalar override is off).
    static bool Accelerated();

    // Round keys serialized as FIPS-197 byte order (16 bytes per round),
    // the operand format of the AES-NI path.
    const std::uint8_t* round_key_bytes() const {
        return round_key_bytes_.data();
    }

  private:
    // Round keys as 4 big-endian words per round.
    std::array<std::uint32_t, 44> round_keys_;
    // The same schedule as contiguous FIPS-order bytes for AES-NI loads.
    std::array<std::uint8_t, 176> round_key_bytes_;
};

// Fixed-key MMO node expansion over a batch of seeds:
//   lefts[i]  = AES_left(seeds[i])  ^ seeds[i]
//   rights[i] = AES_right(seeds[i]) ^ seeds[i]
// Interleaves both key schedules over the batch (8 blocks in flight on
// AES-NI) — the DPF tree-level expansion primitive behind Prg::ExpandLevel.
void MmoExpandBatch(const Aes128& left, const Aes128& right, const u128* seeds,
                    std::size_t n, u128* lefts, u128* rights);

// --- AES-NI backend (src/crypto/aes128_ni.cc) ----------------------------
// Internal: compiled with target("aes") attributes so the rest of the build
// needs no -maes flag; callers must gate on AesNiSupported().
namespace aesni {

// Compile-time + runtime support, ignoring the forced-scalar override.
bool AesNiSupported();

// rk: 11 round keys, 16 FIPS-order bytes each (Aes128::round_key_bytes()).
void EncryptBlocks(const std::uint8_t* rk, const u128* in, u128* out,
                   std::size_t n);
void MmoExpand2(const std::uint8_t* rk_left, const std::uint8_t* rk_right,
                const u128* seeds, std::size_t n, u128* lefts, u128* rights);

}  // namespace aesni

}  // namespace gpudpf

// Length-doubling PRG used for GGM-tree DPF expansion.
//
// Expand(seed) -> (left child seed, right child seed). For AES the standard
// fixed-key Matyas-Meyer-Oseas construction is used (two fixed-key AES
// instances; one schedule each, computed once), matching both the Google
// CPU baseline and the paper's GPU implementation. For ChaCha20 a single
// block call produces both children (512-bit output), which is exactly why
// it performs so well on GPUs (Table 5).
#pragma once

#include <cstddef>
#include <memory>

#include "src/crypto/aes128.h"
#include "src/crypto/prf.h"

namespace gpudpf {

class Prg {
  public:
    explicit Prg(PrfKind kind);

    PrfKind kind() const { return kind_; }

    // One node expansion: derives both child seeds from `seed`.
    // Control bits are extracted from the children's LSBs by the DPF layer.
    void Expand(u128 seed, u128* left, u128* right) const;

    // Batched node expansion of a whole tree-level frontier:
    // (lefts[i], rights[i]) = Expand(seeds[i]). Bit-identical to n scalar
    // Expand calls. The AES kind pipelines the fixed-key MMO through
    // hardware AES-NI (8 blocks in flight); the ChaCha20 kind runs 16
    // (AVX-512) or 8 (AVX2) seeds in lockstep, one per vector lane, with a
    // zero-padded lane block for frontiers and tails narrower than a
    // vector (src/crypto/chacha20_simd.cc). The ISA comes from
    // GetCpuFeatures(), so GPUDPF_FORCE_SCALAR selects the scalar loop;
    // the other kinds always loop the scalar path.
    void ExpandBatch(const u128* seeds, std::size_t n, u128* lefts,
                     u128* rights) const;

    // Expands a seed into `n` output words (leaf/output conversion for
    // wide-output DPFs).
    void ExpandWide(u128 seed, u128* out, std::size_t n) const;

    // Number of underlying primitive calls per Expand (1 for ChaCha20,
    // 2 for the per-child constructions); feeds compute metrics.
    int PrimitiveCallsPerExpand() const;

  private:
    PrfKind kind_;
    // Fixed-key AES instances for the MMO construction (AES kind only).
    std::unique_ptr<Aes128> aes_left_;
    std::unique_ptr<Aes128> aes_right_;
};

}  // namespace gpudpf

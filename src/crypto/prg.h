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

    // Expands one DPF tree-level frontier of packed nodes and applies the
    // level's correction word without a branch on any control bit.
    // parents[i] is a node's seed with its control bit t in the LSB; with
    // (l, r) = Expand(parents[i] with the LSB cleared) and m = all ones
    // when t is set:
    //   children[2i]     = l ^ (m & cw_left)
    //   children[2i + 1] = r ^ (m & cw_right)
    // where cw_left / cw_right are the correction seed (LSB 0) with t_left
    // / t_right in the LSB. Each child is again packed (its control bit is
    // the LSB), and the interleaved L0 R0 L1 R1 ... order is the next
    // level's memory order. children holds 2n words and must not overlap
    // parents.
    //
    // The ChaCha20 kind runs 16 (AVX-512) or 8 (AVX2) parents in
    // lockstep, one per vector lane, applies the correction in registers
    // and interleaves before the store, with a zero-padded lane block for
    // frontiers and tails narrower than a vector
    // (src/crypto/chacha20_simd.cc). The AES kind pipelines the fixed-key
    // MMO through AES-NI (8 blocks in flight) into a small chunk that one
    // masked pass corrects; the other kinds loop the scalar Expand. The ISA
    // comes from GetCpuFeatures(), so GPUDPF_FORCE_SCALAR selects the
    // scalar paths.
    void ExpandLevel(const u128* parents, std::size_t n, u128 cw_left,
                     u128 cw_right, u128* children) const;

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

// ChaCha20 PRG backend (internal to src/crypto; Prg is the public door):
// node expansion with one entry point per instruction set, and wide-output
// conversion.
//
// Every call keys ChaCha20 with the seed repeated to fill the 256-bit key.
// A node expansion runs one block (counter 0, nonce "DPF") and keeps
// output words 0-3 as the left child and words 4-7 as the right child.
// The vector paths (src/crypto/chacha20_simd.cc) run 8 (AVX2) or 16
// (AVX-512) seeds in lockstep, one seed per vector lane, and are
// bit-identical to the scalar block function for every input.
#pragma once

#include <cstddef>

#include "src/common/u128.h"

namespace gpudpf {

enum class ChachaIsa { kScalar, kAvx2, kAvx512 };

// One seed through the scalar RFC 8439 block function: the bit-identity
// reference of the vector paths, and Prg::Expand's ChaCha20 case.
void ChachaExpandScalar(u128 seed, u128* left, u128* right);

// out[0..n) = successive 128-bit words of the block stream under nonce
// "WIDE" (counter = block index, four words per block): Prg::ExpandWide's
// ChaCha20 case.
void ChachaExpandWide(u128 seed, u128* out, std::size_t n);

// Whether the path is compiled in and allowed by the effective
// GetCpuFeatures() probe: false for the vector paths on hosts without the
// ISA and under GPUDPF_FORCE_SCALAR. kScalar is always supported.
bool ChachaIsaSupported(ChachaIsa isa);

// The widest supported path, resolved once at first use.
ChachaIsa BestChachaIsa();

// (lefts[i], rights[i]) = ChachaExpandScalar(seeds[i]) for i < n, through
// the given path, which must be supported. Pointers need no alignment.
// Batches, and tails narrower than one vector, run on a zero-padded lane
// block rather than falling back to the scalar loop.
void ChachaExpandBatch(ChachaIsa isa, const u128* seeds, std::size_t n,
                       u128* lefts, u128* rights);

}  // namespace gpudpf

// ChaCha20 PRG backend (internal to src/crypto; Prg is the public door):
// node expansion, one DPF tree-level entry point per instruction set, and
// wide-output conversion.
//
// Every call keys ChaCha20 with the seed repeated to fill the 256-bit key.
// A node expansion runs one block (counter 0, nonce "DPF") and keeps
// output words 0-3 as the left child and words 4-7 as the right child.
// The vector level paths (src/crypto/chacha20_simd.cc) run 8 (AVX2) or 16
// (AVX-512) parents in lockstep, one per vector lane, and are
// bit-identical to the scalar block function plus the masked correction
// for every input.
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

// One packed DPF tree level (Prg::ExpandLevel's ChaCha20 case) through the
// given path, which must be supported. parents[i] is a seed with its
// control bit t in the LSB; with (l, r) = ChachaExpandScalar(parents[i]
// with the LSB cleared) and m = all ones when t is set:
//   children[2i]     = l ^ (m & cw_left)
//   children[2i + 1] = r ^ (m & cw_right)
// The vector paths apply the correction in registers and interleave the
// children before the store. Pointers need no alignment; children must
// not overlap parents. Levels, and tails narrower than one vector, run on
// a zero-padded lane block rather than falling back to the scalar loop.
void ChachaExpandLevel(ChachaIsa isa, const u128* parents, std::size_t n,
                       u128 cw_left, u128 cw_right, u128* children);

}  // namespace gpudpf

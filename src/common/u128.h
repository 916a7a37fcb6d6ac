// 128-bit unsigned integer helpers used throughout the DPF/PIR stack.
//
// DPF seeds, correction words and output shares are all 128-bit values; the
// additive share group is Z_2^128 (wrap-around arithmetic of the native
// unsigned __int128).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

namespace gpudpf {

using u128 = unsigned __int128;

// Builds a u128 from two 64-bit halves.
constexpr u128 MakeU128(std::uint64_t hi, std::uint64_t lo) {
    return (static_cast<u128>(hi) << 64) | lo;
}

// Returns the low 64 bits.
constexpr std::uint64_t Lo64(u128 v) { return static_cast<std::uint64_t>(v); }

// Returns the high 64 bits.
constexpr std::uint64_t Hi64(u128 v) {
    return static_cast<std::uint64_t>(v >> 64);
}

// Least significant bit, used to extract the DPF control bit from a seed.
constexpr int Lsb(u128 v) { return static_cast<int>(v & 1); }

// Clears the least significant bit (seed normalization after extracting the
// control bit, as in the standard BGI construction).
constexpr u128 ClearLsb(u128 v) { return v & ~static_cast<u128>(1); }

// All ones when the LSB is set, else zero: selects a packed DPF node's
// correction word without a branch on its control bit.
constexpr u128 LsbMask(u128 v) { return static_cast<u128>(0) - (v & 1); }

// Serializes to 16 little-endian bytes.
inline void StoreU128Le(u128 v, std::uint8_t out[16]) {
    std::uint64_t lo = Lo64(v);
    std::uint64_t hi = Hi64(v);
    std::memcpy(out, &lo, 8);
    std::memcpy(out + 8, &hi, 8);
}

// Deserializes from 16 little-endian bytes.
inline u128 LoadU128Le(const std::uint8_t in[16]) {
    std::uint64_t lo;
    std::uint64_t hi;
    std::memcpy(&lo, in, 8);
    std::memcpy(&hi, in + 8, 8);
    return MakeU128(hi, lo);
}

// Hex rendering (most significant digit first), mainly for tests/logging.
std::string ToHex(u128 v);

}  // namespace gpudpf

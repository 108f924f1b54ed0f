// Bit-set helpers over 64-bit process masks (bit p = process p), shared
// by the simulator's adversaries and the explorer.
//
// The count is a SWAR reduction rather than std::popcount: at the default
// x86-64 target (no -mpopcnt) std::popcount compiles to a libgcc call,
// __popcountdi2 through the PLT, on the per-step pick path. Lowest-bit
// indices stay std::countr_zero, which compiles to an inline bsf there.
#pragma once

#include <bit>
#include <cstdint>

namespace bprc {

/// The mask with only bit `p` set; p must be in [0, 64).
constexpr std::uint64_t bit_of(int p) {
  return std::uint64_t{1} << static_cast<unsigned>(p);
}

/// Number of set bits in `x`.
constexpr int popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
}

/// Index of the k-th set bit in increasing order (k = 0 is the lowest);
/// k must be < popcount64(x).
constexpr int nth_set_bit(std::uint64_t x, std::uint64_t k) {
  while (k-- > 0) x &= x - 1;  // clear the k lowest set bits
  return std::countr_zero(x);
}

/// The lowest set bit above bit `after`, wrapping around to the lowest set
/// bit overall; -1 when `x` is empty. after = -1 starts at bit 0. This is
/// a rotation's next stop: after, after+1, ... visited cyclically.
constexpr int next_set_bit_cyclic(std::uint64_t x, int after) {
  const std::uint64_t above =
      after < 0 ? x : after >= 63 ? 0 : x & (~std::uint64_t{0} << (after + 1));
  if (above != 0) return std::countr_zero(above);
  return x != 0 ? std::countr_zero(x) : -1;
}

}  // namespace bprc

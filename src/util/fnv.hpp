// FNV-1a, the one digest family of the repo: campaign summary digests,
// per-run outcome digests, matrix fingerprints, explorer schedule and
// state digests, and the golden schedule hashes tests/test_replay.cpp
// pins all fold 64-bit words with this step. Tests recompute it
// independently on purpose, so a change here shows up as a pinned-hash
// failure rather than passing silently.
#pragma once

#include <cstdint>
#include <string_view>

namespace bprc {

inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

/// One FNV-1a step: folds the whole word `v` into `h`.
inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
  return h;
}

/// Folds each byte of `s` as its own word.
inline std::uint64_t fnv_mix_string(std::uint64_t h, std::string_view s) {
  for (const char c : s) h = fnv_mix(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace bprc

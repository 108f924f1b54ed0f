// Leaf grading for the exploration driver.
//
// The DFS coordinator (explorer.cpp) enumerates the branch region; a
// *leaf* is one execution it has resolved up to the region boundary,
// fully determined by its (schedule prefix, forced-flip prefix) — the
// deterministic tail (round-robin picks, seed-derived coins) follows
// from those plus the shared seed. grade_leaf() re-executes a leaf from
// the initial state on any thread's SimReuse and grades the terminal
// state with the target's full oracle, reporting every pick and flip of
// the run as a byte stream the coordinator folds into its
// schedule_digest in generation order. Because the replay is
// bit-identical to the run the serial explorer would have performed
// inline, digests, stats, and violation lists are byte-identical at any
// --jobs level.
//
// Event-stream encoding (one byte per event, digest-compatible with the
// serial explorer's incremental folds):
//   1..64  — pick of process (value - 1); nprocs ≤ 64 keeps these
//            disjoint from the markers below
//   0xF0   — local-coin flip resolved false
//   0xF1   — local-coin flip resolved true
//   0x80+c — stale read resolved to choice c (weakened register
//            semantics only; c < 6 keeps these below 0xCF)
//   0xCF   — the fork()ed probe of an `--isolate` execution died, so
//            the branch was quarantined instead of run (explorer.cpp)
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "explore/explorer.hpp"

namespace bprc {
class SimReuse;
}

namespace bprc::explore {

inline constexpr std::uint8_t kEventFlipFalse = 0xF0;
inline constexpr std::uint8_t kEventFlipTrue = 0xF1;
inline constexpr std::uint8_t kEventWorkerCrash = 0xCF;
inline constexpr std::uint8_t kEventStaleBase = 0x80;  ///< + choice

/// One enumerated execution, ready to grade. For pruned executions
/// (cache merge / sleep-blocked frontier) no re-execution is needed —
/// the spec carries the coordinator-observed events and step count so
/// delivery-order folding stays uniform.
struct LeafSpec {
  bool pruned = false;
  std::vector<ProcId> schedule;      ///< replay prefix (branch region)
  std::vector<bool> flips;           ///< forced local-coin prefix
  std::vector<int> stales;           ///< forced stale-read choice prefix
  std::vector<std::uint8_t> events;  ///< coordinator-observed prefix events
  std::uint64_t steps = 0;           ///< coordinator-observed prefix steps
};

struct LeafOutcome {
  std::vector<std::uint8_t> events;  ///< full run, encoding above
  std::uint64_t steps = 0;
  bool pruned = false;
  bool complete = false;  ///< RunResult::Reason::kAllDone
  bool crashed = false;   ///< isolation probe died; branch quarantined
  std::optional<Violation> violation;
};

/// Recovers the pick sequence from an event stream (for violation
/// artifacts: the full schedule includes the deterministic tail).
std::vector<ProcId> decode_schedule(const std::vector<std::uint8_t>& events);

/// Re-executes one non-pruned leaf on `reuse` and grades it. The replay
/// prefix is scripted; past it, picks round-robin from the last
/// scheduled process and coins draw from the seed-derived generators —
/// exactly the serial explorer's deterministic tail.
LeafOutcome grade_leaf(ExploreTarget& target, const ExploreLimits& limits,
                       std::uint64_t seed, const LeafSpec& spec,
                       SimReuse& reuse);

}  // namespace bprc::explore

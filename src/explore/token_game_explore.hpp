// Claim 4.1 under exhaustive interleaving: the incremental distance-graph
// update inc(i) must track the sequential token game move-for-move, no
// matter how the n movers interleave. The sampled property tests in
// tests/test_strip.cpp check random move sequences; this target feeds the
// same pair of models through the exploration driver so that *every*
// interleaving of n processes each making M moves is covered (subject to
// seen-state merging, which is sound here: the fingerprint folds the full
// game + graph state via state_probe).
//
// Every mover declares its move as a write to one shared virtual object
// (the strip), so sleep-set reduction never treats two moves as
// independent — the interleaving space is explored in full.
#pragma once

#include <cstdint>

#include "explore/explorer.hpp"

namespace bprc::explore {

/// Explores every interleaving of n processes, each performing
/// `moves_per_proc` move_token/inc pairs on a shared TokenGame +
/// DistanceGraph(K), checking graph == from_positions(game) after each
/// move. Mismatches surface as FailureClass::kConsistency violations.
/// `limits.branch_depth` must be >= n * moves_per_proc for the run to be
/// exhaustive (explore_token_game asserts this).
ExploreResult explore_token_game(int n, int K, int moves_per_proc,
                                 const ExploreLimits& limits,
                                 std::uint64_t seed);

}  // namespace bprc::explore

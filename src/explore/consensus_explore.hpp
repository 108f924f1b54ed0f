// Consensus front end for the exploration driver: wraps any protocol from
// the fault registry (src/fault/protocols.hpp) as an ExploreTarget, grades
// every leaf with the standard oracle (evaluate_consensus — the same
// agreement / validity / bounded-memory / termination checks the torture
// harness applies), and packages violating executions as `.bprc-repro`
// artifacts that the PR-1 replayer and shrinker consume unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "explore/explorer.hpp"
#include "fault/repro.hpp"
#include "util/space_budget.hpp"

namespace bprc::explore {

struct ConsensusExploreConfig {
  std::string protocol;     ///< name in the fault registry
  std::vector<int> inputs;  ///< size = n
  std::uint64_t seed = 1;   ///< process local coins beyond the flip budget
  /// Space budget the protocol instance is built at. Non-default budgets
  /// fold into the target fingerprint, so a `.bprc-frontier` checkpoint
  /// refuses to resume under a different budget.
  SpaceBudget space;
  ExploreLimits limits;
};

struct ConsensusExploreReport {
  ConsensusExploreConfig config;
  ExploreStats stats;
  std::vector<ExploreViolation> violations;
  bool ok() const { return violations.empty(); }
};

/// Target identity folded into frontier fingerprints: protocol name plus
/// the input vector. Together with the limits/seed fold the explorer
/// adds, this pins a `.bprc-frontier` file to one exploration cell.
std::uint64_t consensus_target_fingerprint(const ConsensusExploreConfig& config);

/// Explores every bounded-scope schedule of one (protocol, inputs, seed)
/// cell. `frontier` (optional) enables checkpoint/resume; its
/// target_fingerprint is filled in from the config — callers only supply
/// paths and cadence.
ConsensusExploreReport explore_consensus(const ConsensusExploreConfig& config,
                                         const FrontierOptions* frontier = nullptr);

/// Sweeps all 2^n input vectors of one protocol at n processes (exhaustive
/// in inputs as well as schedules), one report per input cell, each seeded
/// with `seed`. Callers aggregate stats as needed; a violation's cell
/// (and thus its inputs, for the repro) is the report it sits in.
std::vector<ConsensusExploreReport> explore_consensus_all_inputs(
    const std::string& protocol, int n, std::uint64_t seed,
    const ExploreLimits& limits, const SpaceBudget& space = SpaceBudget{});

/// Builds a replayable artifact from an explorer counterexample. The
/// schedule replays through ScriptedAdversary, the forced flips through
/// the repro `flips` line; `bprc_torture --replay` confirms the same
/// FailureClass.
fault::Repro make_explore_repro(const ConsensusExploreConfig& config,
                                const ExploreViolation& violation);

}  // namespace bprc::explore

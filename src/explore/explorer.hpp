// Bounded model checker for small-n executions: depth-first exhaustive
// schedule exploration over the deterministic simulator.
//
// The torture harness (src/fault/) samples schedules; this driver
// *enumerates* them. It is a stateless (replay-based) checker in the
// CHESS tradition: each explored execution re-runs the target from its
// initial state under a scripted prefix held in a backtracking trail, so
// it composes with the existing Runtime/Adversary seams instead of
// requiring snapshot/restore of fiber stacks. Two prunings keep the tree
// tractable:
//
//   * sleep sets (Godefroid-style partial-order reduction) keyed on
//     register-access independence read off the pending OpDesc at each
//     scheduling point — two enabled operations commute when they touch
//     different objects or are both reads;
//   * a seen-state cache over fingerprints of (per-process event-history
//     hashes, shared-register last-writer identities, pending ops,
//     run flags), fed by the TraceSink instrumentation in the registers.
//
// Scope bounds make the tree finite: the first `branch_depth` scheduling
// points branch over every runnable process, the first `max_coin_flips`
// local-coin flips branch over both outcomes (via FlipTape), under
// weakened register semantics the first `max_stale_reads` overlapping
// reads branch over every servable value (the explorer is the adversary
// the runtime asks to resolve them), and beyond those bounds the run
// completes deterministically (round-robin schedule, seed-derived coins,
// atomic-answer stale reads) so every leaf is a *finished* run whose
// terminal state the target's full oracle can grade. Within the bounded scope the
// enumeration is exhaustive; see docs/TESTING.md ("exploration tier").
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "consensus/driver.hpp"
#include "runtime/runtime.hpp"
#include "util/fnv.hpp"

namespace bprc {

class SimRuntime;

namespace explore {

/// Scope and safety-valve bounds for one exploration.
struct ExploreLimits {
  /// Scheduling points explored with full branching; the run continues
  /// deterministically (round-robin) past this depth until it finishes.
  std::uint64_t branch_depth = 10;
  /// Local-coin flips resolved both ways (within the branch region);
  /// later flips draw from the seed-derived generators.
  std::uint64_t max_coin_flips = 3;
  /// Register semantics the target's registers run under. Weakened
  /// (regular / safe) semantics turn every read that overlaps an
  /// in-flight write into an explorer-controlled choice point: the first
  /// `max_stale_reads` of them (within the branch region) branch over
  /// every servable value, later ones resolve to the atomic answer —
  /// mirroring the coin-flip bound. kAtomic leaves the tree and every
  /// digest exactly as before.
  RegisterSemantics semantics = RegisterSemantics::kAtomic;
  std::uint64_t max_stale_reads = 3;
  /// Step budget for each execution's deterministic tail.
  std::uint64_t max_run_steps = 200'000;
  /// Safety valves; 0 = unlimited. Hitting one clears stats.complete.
  std::uint64_t max_executions = 0;
  std::uint64_t max_states = 0;
  /// Stop once this many violating executions were collected.
  std::size_t max_violations = 8;
  /// Prunings, individually toggleable (the determinism tests and the
  /// CLI's --no-* flags compare configurations).
  bool sleep_sets = true;
  bool state_cache = true;
  /// Worker threads grading completed leaves through the trial engine
  /// (enumeration stays serial on the calling thread). <=1 grades inline
  /// — the exact serial path; >1 is byte-identical to it by the engine's
  /// generation-order delivery (docs/PERFORMANCE.md "explorer
  /// deep-scale").
  unsigned grade_jobs = 1;
  /// Seen-state cache memory budget in bytes (0 = unbounded).
  /// Over budget the cache evicts deep entries instead of growing —
  /// sound (fewer prunes, never a skipped state), bounded.
  std::uint64_t max_cache_bytes = 0;
  /// Probe each execution in a fork()ed child first, so a
  /// process-killing protocol (broken-segv) surfaces as kWorkerCrash
  /// instead of taking the DFS down; a child that exits cleanly is
  /// re-run inline (the simulator is deterministic). Forces
  /// grade_jobs <= 1 (fork and worker threads do not mix).
  bool isolate_leaves = false;
  /// Frontier split: restrict the root scheduling point to candidates
  /// whose rank satisfies rank % split_count == split_index, so k
  /// invocations cover the full tree (offline sharding; union of slices
  /// covers every root branch, digests are per-slice). 0/1 = off.
  std::uint32_t split_index = 0;
  std::uint32_t split_count = 0;
};

struct ExploreStats {
  std::uint64_t executions = 0;      ///< runs driven to an end
  std::uint64_t complete_runs = 0;   ///< finished (Reason::kAllDone)
  std::uint64_t truncated_runs = 0;  ///< tail step budget exhausted
  std::uint64_t pruned_runs = 0;     ///< cut short by cache merge / sleep
  std::uint64_t states_visited = 0;  ///< scheduling nodes expanded
  std::uint64_t states_merged = 0;   ///< frontier states already in cache
  std::uint64_t sleep_pruned = 0;    ///< branches skipped by sleep sets
  std::uint64_t sleep_blocked = 0;   ///< nodes with every candidate asleep
  std::uint64_t coin_branches = 0;   ///< coin flips branched both ways
  std::uint64_t stale_branches = 0;  ///< stale reads branched over values
  std::uint64_t max_trail_depth = 0;
  std::uint64_t total_steps = 0;     ///< simulator steps over all runs
  std::uint64_t worker_crashes = 0;  ///< isolation probes that died
  std::uint64_t cache_entries = 0;      ///< seen-state entries at the end
  std::uint64_t peak_cache_bytes = 0;   ///< high-water cache footprint
  std::uint64_t cache_evictions = 0;    ///< budget-forced depth evictions
  /// FNV-1a over every executed pick and forced flip of every execution,
  /// in DFS order. Two explorations that visit the same tree the same way
  /// — e.g. at different grade_jobs levels — match digests.
  std::uint64_t schedule_digest = kFnvOffset;
  double seconds = 0.0;
  /// True iff the bounded tree was exhausted (no safety valve fired).
  bool complete = true;
};

/// What a target reports about one finished/truncated execution.
struct Violation {
  FailureClass failure = FailureClass::kNone;
  std::string note;
};

/// A violating execution, with everything needed to replay it: the full
/// pick sequence (branch region + deterministic tail) and the forced
/// coin-flip prefix.
struct ExploreViolation {
  FailureClass failure = FailureClass::kNone;
  std::string note;
  std::vector<ProcId> schedule;
  std::vector<bool> flips;
  /// Forced stale-read choices (weakened semantics only); replay re-forces
  /// them through ScriptedAdversary::set_stale_script. Reads past the
  /// prefix resolved to the atomic answer, which is also what the script's
  /// past-the-end behavior serves.
  std::vector<int> stales;
};

/// A system under exploration. instantiate() builds fresh shared state
/// bound to `rt` (registers constructed here pick up the explorer's
/// TraceSink) and spawns every process body; the returned Instance grades
/// the execution afterwards.
class ExploreTarget {
 public:
  class Instance {
   public:
    virtual ~Instance() = default;

    /// Grades one execution. `complete` is true when every process
    /// finished (terminal state: apply the full oracle, termination
    /// included); false when the tail step budget truncated the run
    /// (grade safety only — a truncated randomized protocol is
    /// inconclusive, not wrong).
    virtual std::optional<Violation> check(SimRuntime& rt, RunResult run,
                                           bool complete) = 0;

    /// Extra shared state folded into the seen-state fingerprint, for
    /// state the TraceSink instrumentation cannot see (e.g. a model
    /// object advanced directly by process bodies). Default: nothing.
    virtual std::uint64_t state_probe() const { return 0; }
  };

  virtual ~ExploreTarget() = default;
  virtual int nprocs() const = 0;
  virtual std::unique_ptr<Instance> instantiate(SimRuntime& rt) = 0;
};

struct ExploreResult {
  ExploreStats stats;
  std::vector<ExploreViolation> violations;
  bool ok() const { return violations.empty(); }
};

struct Frontier;  // explore/frontier.hpp

/// Checkpoint/resume plumbing for one exploration. The explorer folds
/// `target_fingerprint` (the caller's identity for the target — protocol
/// name, inputs, n) with its own limits and seed into the frontier's
/// config fingerprint; resume refuses a mismatch.
struct FrontierOptions {
  /// Parsed frontier to continue from (caller loads and owns it); null =
  /// fresh start. A complete frontier returns its saved result directly.
  const Frontier* resume = nullptr;
  /// Where to write checkpoints; empty = never write. A checkpoint is
  /// written when the exploration ends (complete or valve-stopped) and,
  /// if checkpoint_every > 0, after every that-many enumerated
  /// executions. Checkpoints are taken at drained pipeline boundaries,
  /// so a resumed run reproduces the uninterrupted schedule_digest.
  std::string checkpoint_path;
  std::uint64_t checkpoint_every = 0;
  std::uint64_t target_fingerprint = 0;
};

/// Explores every schedule of `target` within `limits`. `seed` derives the
/// per-process coins used beyond the forced-flip budget (and must match
/// the seed later used to replay a violation). One SimRuntime is recycled
/// across executions via reset(); tests/test_sim_runtime.cpp pins the
/// resulting digests. `frontier` (optional) enables checkpoint/resume;
/// see FrontierOptions.
ExploreResult explore(ExploreTarget& target, const ExploreLimits& limits,
                      std::uint64_t seed,
                      const FrontierOptions* frontier = nullptr);

}  // namespace explore
}  // namespace bprc

// Self-contained, replayable failure artifacts (`.bprc-repro` files).
//
// An artifact freezes everything a failing torture run needs to be
// re-executed bit-for-bit in the deterministic simulator: protocol name,
// process inputs, seed, step budget, the (minimized) schedule, and the
// crash events. The format is a line-oriented text file — diffable,
// hand-editable for manual bisection (see docs/TESTING.md), and stable
// across versions via a leading version tag:
//
//   bprc-repro v1
//   protocol broken-racy
//   inputs 0 1
//   adversary round-robin        # provenance: the strategy that found it
//   seed 7
//   max-steps 2000000
//   semantics regular            # optional: register semantics (default
//                                # atomic; docs/REGISTER_SEMANTICS.md)
//   space K=3 cycle=3 slots=4 b=8 mscale=4
//                                # optional: space budget (default = the
//                                # paper's; docs/SPACE_BUDGETS.md)
//   failure consistency
//   note decisions=0,1
//   crash 37 0                   # zero or more: at_step victim
//   flips 0 1 1                  # optional: forced local-coin flip prefix
//   stale-reads 1 0 1            # optional: recorded stale-read choices
//   schedule 0 1 0 1 1 0
//   end
//
// The grammar is the shared line-record one (util/line_record.hpp).
// Unknown keys are skipped (forward compatibility); `end` guards against
// truncated files; `protocol`, `inputs`, `adversary` and `max-steps` are
// required, and a `failure` class this build does not know is refused. The optional `flips` line carries the coin-flip prefix
// the exploration driver (src/explore/) resolved by hand; replay re-forces
// it through a ScriptedFlipTape. Artifacts found by random campaigns never
// need it — their coins re-derive from the seed. `semantics` and
// `stale-reads` exist only for weak-register artifacts (both omitted under
// atomic, so pre-existing artifacts and their byte-identity tests are
// untouched); replay re-forces the recorded choices through
// ScriptedAdversary::set_stale_script. A `semantics` value this build does
// not recognize is rejected with a diagnostic, never guessed at — the same
// hardening as the n>64 bitmask guard.
#pragma once

#include <optional>
#include <string>

#include "fault/campaign.hpp"

namespace bprc::fault {

struct Repro {
  int version = 1;
  TortureRun run;  ///< crash_plan holds provenance only; replay uses `crashes`
  FailureClass failure = FailureClass::kNone;
  std::vector<CrashPlanAdversary::Crash> crashes;
  std::vector<ProcId> schedule;
  std::vector<bool> flips;  ///< forced flip prefix; empty = seed-derived
  /// Recorded stale-read choices (run.semantics != kAtomic only); empty =
  /// every weakened read resolves to the atomic answer.
  std::vector<int> stales;
  std::string note;  ///< free-form one-liner about the observed violation
  /// Generative replay (`mode generative` line): re-execute the run with
  /// its original adversary and seed instead of a scripted schedule. This
  /// is how kWorkerCrash quarantine artifacts stay replayable — the trial
  /// killed the process that would have recorded its schedule, but
  /// (adversary, seed) regenerate the identical run. Replaying one is
  /// expected to re-kill the replayer; that is the reproduction.
  bool generative = false;
};

std::string serialize_repro(const Repro& repro);

/// Parses serialize_repro output; nullopt + `err` message on malformed
/// input (user-supplied files must not abort the process).
std::optional<Repro> parse_repro(const std::string& text, std::string* err);

/// File convenience wrappers. save returns false on I/O failure.
bool save_repro(const std::string& path, const Repro& repro);
std::optional<Repro> load_repro(const std::string& path, std::string* err);

/// Re-executes the artifact in the simulator.
ConsensusRunResult replay_repro(const Repro& repro);

/// Builds the artifact for a (possibly shrunk) failure.
Repro make_repro(const TortureFailure& fail,
                 const std::vector<ProcId>& schedule,
                 const std::vector<CrashPlanAdversary::Crash>& crashes);

}  // namespace bprc::fault

// Self-tests of the probes: on small cells, the factory wrapper, the
// counting TraceSink, the adversary decorator and the traced explore
// target must leave every digest bit-identical to the untraced library
// paths.
#include <cstdio>
#include <string>

#include "explore/consensus_explore.hpp"
#include "fault/campaign.hpp"
#include "fault/protocols.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bprc;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("  %s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::uint64_t chain(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001B3ULL;
  return h;
}

void campaign_cell(int n, RegisterSemantics semantics) {
  fault::CampaignConfig config;
  config.protocols = {"bprc"};
  config.ns = {n};
  config.seeds_per_cell = 2;
  config.seed0 = 7;
  config.semantics = {semantics};
  const fault::CampaignReport reference = fault::run_campaign(config);

  const std::vector<fault::TortureRun> runs =
      fault::enumerate_campaign_runs(config, nullptr);
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  bool per_run_equal = true;
  bool counted = true;
  SimReuse reuse;
  for (const fault::TortureRun& run : runs) {
    const engine::TrialSpec spec =
        fault::to_trial_spec(run, config.run_deadline, true);
    const engine::TrialOutcome plain = engine::run_trial(spec);
    TrialTrace trace(n);
    const engine::TrialOutcome traced = traced_run_trial(spec, reuse, trace);
    const std::uint64_t d = fault::outcome_digest(traced);
    per_run_equal = per_run_equal && d == fault::outcome_digest(plain);
    counted = counted && trace.picks == traced.schedule.size() &&
              trace.sink.value_reads > 0 && trace.sink.arrow_writes > 0 &&
              trace.scans > 0 && trace.oracle_end_ns >= trace.oracle_start_ns &&
              trace.oracle_start_ns > 0;
    digest = chain(digest, d);
  }
  const std::string cell = "bprc n=" + std::to_string(n) + " " +
                           to_string(semantics) + " (" +
                           std::to_string(runs.size()) + " runs)";
  expect(reference.ok() && reference.runs == runs.size(),
         cell + ": reference campaign passes");
  expect(per_run_equal, cell + ": every traced outcome digest equals run_trial's");
  expect(digest == reference.summary_digest,
         cell + ": traced chain equals the campaign summary_digest");
  expect(counted, cell + ": probes counted picks, register ops, scans, oracle");
}

void explore_cell(unsigned grade_jobs) {
  explore::ConsensusExploreConfig config;
  config.protocol = "bprc";
  config.inputs = {0, 1, 1};
  config.seed = 3;
  config.limits.branch_depth = 10;
  config.limits.max_coin_flips = 2;
  config.limits.grade_jobs = grade_jobs;
  const explore::ConsensusExploreReport reference =
      explore::explore_consensus(config);

  ExploreTrace trace;
  TracedConsensusTarget target(
      fault::make_protocol(config.protocol, 3, config.seed, config.space),
      config.inputs, trace);
  const explore::ExploreResult traced =
      explore::explore(target, config.limits, config.seed);
  const std::string cell =
      "explore bprc n=3 depth 10, grade_jobs " + std::to_string(grade_jobs);
  expect(reference.ok() && reference.stats.complete,
         cell + ": reference exploration is clean and complete");
  expect(traced.stats.schedule_digest == reference.stats.schedule_digest &&
             traced.stats.executions == reference.stats.executions &&
             traced.stats.states_visited == reference.stats.states_visited,
         cell + ": traced target reproduces the schedule digest");
  expect(trace.leaves.load() == reference.stats.complete_runs +
                                    reference.stats.truncated_runs,
         cell + ": every graded leaf passed through the traced oracle");
}

}  // namespace

int run_selftest() {
  std::printf("perfbench self-tests\n");
  campaign_cell(3, RegisterSemantics::kAtomic);
  campaign_cell(4, RegisterSemantics::kRegular);
  explore_cell(1);
  explore_cell(3);
  std::printf("%d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench

// Unit tests for the fault-injection subsystem: repro parsing, campaign
// behavior, hostile adversaries, and the runtime watchdogs.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/protocols.hpp"
#include "fault/repro.hpp"
#include "runtime/adversary.hpp"
#include "runtime/sim_runtime.hpp"
#include "runtime/thread_runtime.hpp"

namespace bprc::fault {
namespace {

using namespace std::chrono_literals;

TEST(ProtocolRegistry, NamesAndBrokenFlag) {
  const auto real = protocol_names();
  EXPECT_EQ(real.size(), 4u);
  for (const auto& name : real) EXPECT_FALSE(protocol_spec(name).broken);

  const auto all = protocol_names(/*include_broken=*/true);
  EXPECT_EQ(all.size(), 9u);
  EXPECT_TRUE(protocol_spec("broken-racy").broken);
  EXPECT_TRUE(protocol_spec("broken-unbounded").broken);
  EXPECT_TRUE(protocol_spec("broken-needs-atomic").broken);
  EXPECT_TRUE(protocol_spec("bprc-underprov-cycle").broken);
  EXPECT_TRUE(protocol_spec("bprc-underprov-slots").broken);
  EXPECT_FALSE(protocol_spec("broken-needs-atomic").crash_tolerant);
  EXPECT_FALSE(protocol_spec("local-coin").crash_tolerant);
  EXPECT_TRUE(protocol_spec("bprc").crash_tolerant);
}

TEST(ProtocolRegistry, SpaceSensitivityTraits) {
  // The campaign's space axis runs a protocol at non-default budgets only
  // when its layout actually consumes them (docs/SPACE_BUDGETS.md).
  for (const char* name : {"bprc", "aspnes-herlihy", "bprc-underprov-cycle",
                           "bprc-underprov-slots"}) {
    EXPECT_TRUE(protocol_spec(name).space_sensitive) << name;
  }
  for (const char* name :
       {"local-coin", "strong-coin", "broken-racy", "broken-unbounded"}) {
    EXPECT_FALSE(protocol_spec(name).space_sensitive) << name;
  }
}

TEST(ProtocolRegistry, EveryRowPinsItsTraits) {
  // One row per registered protocol, in registry order: a flipped trait
  // silently changes which campaign cells run or how their failures are
  // counted, so every trait of every protocol is pinned here.
  struct Row {
    const char* name;
    bool broken, crash_tolerant, live_under_stale_reads,
        tolerates_safe_reads, space_sensitive, crashes_process;
  };
  const std::vector<Row> expected = {
      // name                    brk    crash  stale  safe   space  kills
      {"bprc",                  false, true,  false, false, true,  false},
      {"aspnes-herlihy",        false, true,  false, true,  true,  false},
      {"local-coin",            false, false, false, true,  false, false},
      {"strong-coin",           false, true,  false, true,  false, false},
      {"broken-racy",           true,  true,  true,  true,  false, false},
      {"broken-unbounded",      true,  true,  true,  true,  false, false},
      {"bprc-underprov-cycle",  true,  true,  false, false, true,  false},
      {"bprc-underprov-slots",  true,  true,  false, false, true,  false},
      {"broken-needs-atomic",   true,  false, true,  true,  false, false},
      {"broken-segv",           true,  false, true,  true,  false, true},
  };
  const auto& registry = protocol_registry();
  ASSERT_EQ(registry.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const ProtocolSpec& spec = registry[i];
    const Row& row = expected[i];
    EXPECT_EQ(spec.name, row.name) << i;
    EXPECT_EQ(spec.broken, row.broken) << row.name;
    EXPECT_EQ(spec.crash_tolerant, row.crash_tolerant) << row.name;
    EXPECT_EQ(spec.live_under_stale_reads, row.live_under_stale_reads)
        << row.name;
    EXPECT_EQ(spec.tolerates_safe_reads, row.tolerates_safe_reads)
        << row.name;
    EXPECT_EQ(spec.space_sensitive, row.space_sensitive) << row.name;
    EXPECT_EQ(spec.crashes_process, row.crashes_process) << row.name;
    EXPECT_TRUE(static_cast<bool>(spec.make)) << row.name;
  }
}

TEST(Repro, ParseRejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(parse_repro("", &err).has_value());
  EXPECT_FALSE(parse_repro("not-a-repro\n", &err).has_value());
  // Truncated file: header but no `end` sentinel.
  EXPECT_FALSE(
      parse_repro("bprc-repro v1\nprotocol bprc\ninputs 0 1\nseed 3\n", &err)
          .has_value());
  EXPECT_FALSE(err.empty());
  // Unsupported version.
  EXPECT_FALSE(parse_repro("bprc-repro v99\nend\n", &err).has_value());
  // Schedule entry out of range for n=2.
  EXPECT_FALSE(parse_repro("bprc-repro v1\nprotocol bprc\ninputs 0 1\n"
                           "seed 3\nmax-steps 100\nschedule 0 7\nend\n",
                           &err)
                   .has_value());
}

TEST(Repro, UnknownKeysAreSkipped) {
  std::string err;
  const auto parsed = parse_repro(
      "bprc-repro v1\nprotocol bprc\ninputs 0 1\nadversary random\n"
      "seed 3\nmax-steps 100\nfuture-key some value\nschedule 0 1\nend\n",
      &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->run.protocol, "bprc");
  EXPECT_EQ(parsed->schedule, (std::vector<ProcId>{0, 1}));
}

TEST(Campaign, CleanProtocolsPassASmallSweep) {
  CampaignConfig config;
  config.protocols = {"bprc", "aspnes-herlihy"};
  config.ns = {2, 3};
  config.adversaries = {"random", "crash-storm", "split-brain"};
  config.seeds_per_cell = 1;
  config.max_steps = 4'000'000;
  config.run_deadline = 3000ms;
  const CampaignReport report = run_campaign(config);
  EXPECT_TRUE(report.ok()) << report.failures.size() << " failure(s)";
  EXPECT_GT(report.runs, 0u);
  EXPECT_EQ(report.skipped_crash_cells, 0u);
}

TEST(Campaign, SkipsCrashCellsForNonTolerantProtocols) {
  CampaignConfig config;
  config.protocols = {"local-coin"};
  config.ns = {2};
  config.adversaries = {"crash-storm"};
  config.seeds_per_cell = 1;
  config.max_steps = 2'000'000;
  const CampaignReport report = run_campaign(config);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.runs, 0u);
  EXPECT_GT(report.skipped_crash_cells, 0u);
}

TEST(ProtocolRegistry, WeakRegisterTraits) {
  // The faithful protocols prove expected termination over atomic
  // registers only (docs/REGISTER_SEMANTICS.md); BPRC additionally
  // refuses safe-register junk via its edge-counter decode invariant.
  for (const char* name : {"bprc", "aspnes-herlihy", "local-coin",
                           "strong-coin"}) {
    EXPECT_FALSE(protocol_spec(name).live_under_stale_reads) << name;
  }
  for (const char* name : {"broken-racy", "broken-unbounded",
                           "broken-needs-atomic", "broken-segv"}) {
    EXPECT_TRUE(protocol_spec(name).live_under_stale_reads) << name;
    EXPECT_TRUE(protocol_spec(name).tolerates_safe_reads) << name;
  }
  EXPECT_FALSE(protocol_spec("bprc").tolerates_safe_reads);
  EXPECT_TRUE(protocol_spec("aspnes-herlihy").tolerates_safe_reads);
}

TEST(Campaign, SkipsSafeCellsForIntolerantProtocols) {
  CampaignConfig config;
  config.protocols = {"bprc"};
  config.ns = {2};
  config.adversaries = {"random"};
  config.seeds_per_cell = 1;
  config.semantics = {RegisterSemantics::kSafe};
  const CampaignReport report = run_campaign(config);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.runs, 0u);
  EXPECT_GT(report.skipped_safe_cells, 0u);
  EXPECT_EQ(report.skipped_crash_cells, 0u);

  // The same matrix under regular semantics runs: only kSafe is gated.
  config.semantics = {RegisterSemantics::kRegular};
  config.max_steps = 2'000'000;
  const CampaignReport regular = run_campaign(config);
  EXPECT_GT(regular.runs, 0u);
  EXPECT_EQ(regular.skipped_safe_cells, 0u);
}

TEST(Campaign, SkipsSpaceCellsForBudgetIgnoringProtocols) {
  SpaceBudget big;
  big.b = 8;
  CampaignConfig config;
  config.protocols = {"local-coin"};
  config.ns = {2};
  config.adversaries = {"random"};
  config.seeds_per_cell = 1;
  config.max_steps = 2'000'000;
  config.crash_plans = false;
  config.spaces = {big};
  const CampaignReport report = run_campaign(config);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.runs, 0u);
  EXPECT_GT(report.skipped_space_cells, 0u);

  // Adding the default budget back runs the protocol once — only the
  // non-default cell is skipped-and-counted.
  config.spaces = {SpaceBudget{}, big};
  const CampaignReport mixed = run_campaign(config);
  EXPECT_GT(mixed.runs, 0u);
  EXPECT_GT(mixed.skipped_space_cells, 0u);

  // A budget-consuming protocol runs every budget and skips nothing.
  config.protocols = {"bprc"};
  const CampaignReport sensitive = run_campaign(config);
  EXPECT_GT(sensitive.runs, mixed.runs);
  EXPECT_EQ(sensitive.skipped_space_cells, 0u);
}

TEST(Campaign, UnderProvisionedVariantsAreCaughtAsBoundedMemory) {
  // The space lane's self-certification (docs/SPACE_BUDGETS.md): the
  // faithful protocol run at a deliberately short budget must surface
  // kBoundedMemory under plain random campaigns — no special adversary,
  // no exhaustive search.
  for (const char* name : {"bprc-underprov-cycle", "bprc-underprov-slots"}) {
    CampaignConfig config;
    config.protocols = {name};
    config.ns = {2, 3};
    config.adversaries = {"random"};
    config.seeds_per_cell = 8;
    config.max_steps = 2'000'000;
    config.crash_plans = false;
    config.max_failures = 64;
    const CampaignReport report = run_campaign(config);
    ASSERT_FALSE(report.failures.empty()) << name;
    for (const TortureFailure& fail : report.failures) {
      EXPECT_EQ(fail.failure, FailureClass::kBoundedMemory) << name;
    }
  }
}

TEST(Campaign, SummaryDigestIsJobsInvariantAlongTheSpaceAxis) {
  // The independence witness extends to the space axis: a sweep spanning
  // the paper budget and a non-default one folds to the same digest at
  // every jobs level, skips counted identically.
  SpaceBudget tall;
  tall.K = 3;  // parse("K=3") shape: slots re-derived to K+1
  tall.slots = 4;
  CampaignConfig config;
  config.protocols = {"bprc", "local-coin"};
  config.ns = {2};
  config.adversaries = {"random"};
  config.seeds_per_cell = 2;
  config.max_steps = 2'000'000;
  config.crash_plans = false;
  config.spaces = {SpaceBudget{}, tall};
  config.jobs = 1;
  const CampaignReport serial = run_campaign(config);
  config.jobs = 4;
  const CampaignReport parallel = run_campaign(config);
  EXPECT_EQ(serial.summary_digest, parallel.summary_digest);
  EXPECT_EQ(serial.runs, parallel.runs);
  EXPECT_GT(serial.runs, 0u);
  EXPECT_GT(serial.skipped_space_cells, 0u);
  EXPECT_EQ(serial.skipped_space_cells, parallel.skipped_space_cells);
}

TEST(Campaign, WeakenedBudgetStopIsAnAbortNotAFailure) {
  // A starvation-sized budget: under atomic semantics the truncated run
  // is a termination failure, as ever. Under weakened semantics the same
  // protocol is registered live_under_stale_reads=false, so the stop is
  // inconclusive — counted as a budget abort, reported clean (the
  // explorer's truncated-leaf downgrade, applied to the campaign).
  CampaignConfig config;
  config.protocols = {"bprc"};
  config.ns = {2};
  config.adversaries = {"round-robin"};
  config.seeds_per_cell = 1;
  config.crash_plans = false;
  config.max_steps = 200;  // far below any full run
  const CampaignReport atomic = run_campaign(config);
  EXPECT_FALSE(atomic.ok());
  ASSERT_FALSE(atomic.failures.empty());
  EXPECT_EQ(atomic.failures[0].failure, FailureClass::kTermination);
  EXPECT_GT(atomic.budget_aborts, 0u);

  config.semantics = {RegisterSemantics::kRegular};
  const CampaignReport weakened = run_campaign(config);
  EXPECT_TRUE(weakened.ok()) << weakened.failures.size() << " failure(s)";
  EXPECT_GT(weakened.budget_aborts, 0u);
  EXPECT_GT(weakened.runs, 0u);

  // Safety violations are never downgraded: the seeded needs-atomic bug
  // still fails its weakened cells (pinned end to end in test_replay).
  CampaignConfig broken;
  broken.protocols = {"broken-needs-atomic"};
  broken.ns = {2, 3};
  broken.adversaries = {"random"};
  broken.seeds_per_cell = 8;
  broken.crash_plans = false;
  broken.max_steps = 100'000;
  broken.semantics = {RegisterSemantics::kRegular};
  const CampaignReport caught = run_campaign(broken);
  ASSERT_FALSE(caught.failures.empty());
  EXPECT_EQ(caught.failures[0].failure, FailureClass::kConsistency);
}

TEST(CrashStorm, RespectsTheWaitFreedomBound) {
  // n-1 crashes at most: some process always survives, and a crash-storm
  // run over a crash-tolerant protocol still terminates correctly.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    TortureRun run;
    run.protocol = "bprc";
    run.inputs = {0, 1, 0};
    run.adversary = "crash-storm";
    run.seed = seed;
    run.max_steps = 4'000'000;
    std::vector<CrashPlanAdversary::Crash> crashes;
    const ConsensusRunResult result =
        execute_run(run, std::chrono::nanoseconds::zero(), nullptr, &crashes);
    EXPECT_TRUE(result.ok()) << "seed " << seed;
    EXPECT_LT(crashes.size(), run.inputs.size()) << "crashed everyone";
    std::set<ProcId> victims;
    for (const auto& c : crashes) victims.insert(c.victim);
    EXPECT_EQ(victims.size(), crashes.size()) << "double-crashed a victim";
  }
}

TEST(SplitBrain, AlternatesBetweenGroups) {
  // Drive 4 spinning processes and check both halves get long solo runs.
  SimRuntime rt(4, std::make_unique<SplitBrainAdversary>(3, 50), 1);
  std::vector<ProcId> trace;
  for (ProcId p = 0; p < 4; ++p) {
    rt.spawn(p, [&rt, &trace, p] {
      for (;;) {
        trace.push_back(p);
        rt.checkpoint({});
      }
    });
  }
  rt.run(2000);
  ASSERT_EQ(trace.size(), 2000u);
  // Every pick stays within one group for a burst; count group switches
  // and verify both groups were scheduled.
  bool saw_low = false, saw_high = false;
  int switches = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const int group = trace[i] < 2 ? 0 : 1;
    (group == 0 ? saw_low : saw_high) = true;
    if (i > 0 && group != (trace[i - 1] < 2 ? 0 : 1)) ++switches;
  }
  EXPECT_TRUE(saw_low);
  EXPECT_TRUE(saw_high);
  // Long bursts => far fewer switches than picks.
  EXPECT_LT(switches, 200);
  EXPECT_GT(switches, 0);
}

TEST(SimWatchdog, ExpiredDeadlineAbortsTheRun) {
  // With a 1ns deadline the first stride check fires; the run must end
  // with Reason::kDeadline instead of burning the whole step budget.
  SimRuntime rt(2, std::make_unique<RoundRobinAdversary>(), 1);
  for (ProcId p = 0; p < 2; ++p) {
    rt.spawn(p, [&rt] {
      for (;;) rt.checkpoint({});
    });
  }
  const RunResult result = rt.run(100'000'000, 1ns);
  EXPECT_EQ(result.reason, RunResult::Reason::kDeadline);
  EXPECT_LT(result.steps, 100'000'000u);
}

TEST(SimWatchdog, ZeroDeadlineMeansOff) {
  SimRuntime rt(2, std::make_unique<RoundRobinAdversary>(), 1);
  for (ProcId p = 0; p < 2; ++p) {
    rt.spawn(p, [&rt] {
      for (;;) rt.checkpoint({});
    });
  }
  const RunResult result = rt.run(10'000);
  EXPECT_EQ(result.reason, RunResult::Reason::kBudget);
}

TEST(ThreadWatchdog, DeadlineUnwedgesALivelockedRun) {
  // Bodies spin at checkpoints forever; without the watchdog this run
  // would only end after 4B steps. The deadline must end it in ~50ms
  // with Reason::kDeadline.
  ThreadRuntime rt(2, 9);
  for (ProcId p = 0; p < 2; ++p) {
    rt.spawn(p, [&rt] {
      for (;;) rt.checkpoint({});
    });
  }
  const RunResult result = rt.run(4'000'000'000ULL, 50ms);
  EXPECT_EQ(result.reason, RunResult::Reason::kDeadline);
}

TEST(ThreadWatchdog, FastRunsFinishBeforeTheDeadline) {
  ThreadRuntime rt(2, 9);
  for (ProcId p = 0; p < 2; ++p) {
    rt.spawn(p, [&rt] {
      for (int i = 0; i < 100; ++i) rt.checkpoint({});
    });
  }
  const RunResult result = rt.run(1'000'000, 10s);
  EXPECT_EQ(result.reason, RunResult::Reason::kAllDone);
}

}  // namespace
}  // namespace bprc::fault

// Tests for the explorer's deep-scale layers (src/explore/): engine-
// batched leaf grading (digest byte-equality across jobs levels), the
// compact seen-state cache (against a map model, budgeted eviction),
// frontier checkpoint/resume (resumed digest == uninterrupted digest,
// pinned fingerprint), frontier splitting, and fork-isolated exploration
// of process-killing protocols.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "explore/consensus_explore.hpp"
#include "explore/explorer.hpp"
#include "explore/frontier.hpp"
#include "explore/seen_cache.hpp"
#include "fault/repro.hpp"

namespace bprc::explore {
namespace {

ExploreLimits cell_limits(std::uint64_t depth, std::uint64_t coins = 2) {
  ExploreLimits limits;
  limits.branch_depth = depth;
  limits.max_coin_flips = coins;
  limits.max_run_steps = 200'000;
  limits.max_violations = 64;
  return limits;
}

ConsensusExploreReport run_cell(const std::string& protocol,
                                std::vector<int> inputs,
                                const ExploreLimits& limits,
                                const FrontierOptions* frontier = nullptr,
                                std::uint64_t seed = 1) {
  ConsensusExploreConfig config;
  config.protocol = protocol;
  config.inputs = std::move(inputs);
  config.seed = seed;
  config.limits = limits;
  return explore_consensus(config, frontier);
}

// ---------------------------------------------------------------------------
// Batched grading: byte-identical digests at every jobs level
// ---------------------------------------------------------------------------

TEST(DeepScale, DigestIsInvariantAcrossJobsAndCacheLayout) {
  // Serial vs batched grading land on the same tree and digest. The
  // pinned values are the ones every grading level and both seen-cache
  // layouts (compact table, retired unordered_map) produced.
  for (const unsigned jobs : {1u, 4u}) {
    ExploreLimits limits = cell_limits(12);
    limits.grade_jobs = jobs;
    const ConsensusExploreReport report = run_cell("bprc", {0, 1, 1}, limits);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report.stats.complete);
    EXPECT_EQ(report.stats.schedule_digest, 0x2506cf466fa9d04aULL)
        << "jobs=" << jobs;
    EXPECT_EQ(report.stats.executions, 218u) << "jobs=" << jobs;
    EXPECT_EQ(report.stats.states_visited, 505u) << "jobs=" << jobs;
    EXPECT_EQ(report.stats.states_merged, 0u) << "jobs=" << jobs;
  }
}

TEST(DeepScale, BatchedGradingFindsTheSameViolationsInOrder) {
  // broken-racy at n=2: the batched pipeline must report the identical
  // violation sequence (count, schedules, flips) the serial DFS finds —
  // generation-order delivery is what makes the digest contract hold.
  ExploreLimits serial = cell_limits(8, 3);
  ExploreLimits batched = serial;
  batched.grade_jobs = 4;
  const ConsensusExploreReport a = run_cell("broken-racy", {0, 1}, serial);
  const ConsensusExploreReport b = run_cell("broken-racy", {0, 1}, batched);
  ASSERT_GT(a.violations.size(), 0u);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.stats.schedule_digest, b.stats.schedule_digest);
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].schedule, b.violations[i].schedule) << i;
    EXPECT_EQ(a.violations[i].flips, b.violations[i].flips) << i;
    EXPECT_EQ(a.violations[i].failure, b.violations[i].failure) << i;
  }
}

TEST(DeepScale, EarlyStopPicksTheSameFirstViolation) {
  // max_violations=1 stops the sweep at the first finding; with batched
  // grading the pipeline may have speculated past it, but the *reported*
  // first violation must still be the serial DFS's first violation.
  ExploreLimits serial = cell_limits(8, 3);
  serial.max_violations = 1;
  ExploreLimits batched = serial;
  batched.grade_jobs = 4;
  const ConsensusExploreReport a = run_cell("broken-racy", {0, 1}, serial);
  const ConsensusExploreReport b = run_cell("broken-racy", {0, 1}, batched);
  ASSERT_EQ(a.violations.size(), 1u);
  ASSERT_EQ(b.violations.size(), 1u);
  EXPECT_EQ(a.violations[0].schedule, b.violations[0].schedule);
  EXPECT_EQ(a.violations[0].flips, b.violations[0].flips);
}

// ---------------------------------------------------------------------------
// SeenCache: map-model parity, depth semantics, budgeted eviction
// ---------------------------------------------------------------------------

TEST(SeenCacheTest, DepthSemantics) {
  SeenCache cache;
  EXPECT_EQ(cache.visit(42, 5), SeenCache::Visit::kNew);
  EXPECT_EQ(cache.visit(42, 5), SeenCache::Visit::kMerged);
  EXPECT_EQ(cache.visit(42, 9), SeenCache::Visit::kMerged);
  // Shallower revisit: the guarded subtree is larger — re-explore.
  EXPECT_EQ(cache.visit(42, 2), SeenCache::Visit::kRedo);
  EXPECT_EQ(cache.visit(42, 3), SeenCache::Visit::kMerged);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(SeenCacheTest, LayoutsMakeIdenticalDecisions) {
  // A pseudo-random visit stream must produce the verdict sequence of an
  // exact fingerprint → shallowest-depth map — the explorer's digest
  // depends on it. The map is the reference model.
  std::unordered_map<std::uint64_t, std::uint8_t> model;
  const auto model_visit = [&](std::uint64_t key, std::uint8_t depth) {
    const auto [it, inserted] = model.try_emplace(key, depth);
    if (inserted) return SeenCache::Visit::kNew;
    if (it->second <= depth) return SeenCache::Visit::kMerged;
    it->second = depth;
    return SeenCache::Visit::kRedo;
  };
  SeenCache compact;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 20'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // Small key space forces plenty of revisits at varying depths.
    std::uint64_t key = (x % 4096) + 1;
    const std::uint8_t depth = static_cast<std::uint8_t>((x >> 20) % 32);
    ASSERT_EQ(model_visit(key, depth), compact.visit(key, depth)) << i;
  }
  EXPECT_EQ(model.size(), compact.entries());
}

TEST(SeenCacheTest, CompactStaysUnderBudgetByEvicting) {
  const std::uint64_t budget = 64 * 1024;
  SeenCache cache(budget);
  std::uint64_t x = 1;
  for (int i = 0; i < 200'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint8_t depth = static_cast<std::uint8_t>(x % 64);
    cache.visit(x == 0 ? kSeenZeroKey : x, depth);
    ASSERT_LE(cache.bytes(), budget) << "cache grew past its budget";
  }
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.peak_bytes(), budget);
  // Shallow entries survive eviction: depth-0 states re-merge.
  SeenCache shallow(budget);
  EXPECT_EQ(shallow.visit(7, 0), SeenCache::Visit::kNew);
  EXPECT_EQ(shallow.visit(7, 0), SeenCache::Visit::kMerged);
}

TEST(SeenCacheTest, SnapshotRestoreRoundTrips) {
  SeenCache cache;
  std::uint64_t x = 3;
  for (int i = 0; i < 5'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    cache.visit(x, static_cast<std::uint8_t>(x % 17));
  }
  std::vector<std::pair<std::uint64_t, std::uint8_t>> snap;
  cache.snapshot(&snap);
  ASSERT_EQ(snap.size(), cache.entries());
  SeenCache restored;
  restored.restore(snap);
  EXPECT_EQ(restored.entries(), cache.entries());
  // Every saved entry merges at its recorded depth in the restored
  // cache — the property resume correctness rests on.
  for (const auto& [key, depth] : snap) {
    EXPECT_EQ(restored.visit(key, depth), SeenCache::Visit::kMerged);
  }
}

TEST(DeepScale, CacheBudgetIsSoundAtTheExplorerLevel) {
  // A starved cache re-explores instead of pruning — more work, same
  // verdict, footprint bounded, evictions reported.
  ExploreLimits unbounded = cell_limits(12);
  ExploreLimits starved = unbounded;
  starved.max_cache_bytes = 32 * 1024;
  const ConsensusExploreReport a = run_cell("bprc", {0, 1, 1}, unbounded);
  const ConsensusExploreReport b = run_cell("bprc", {0, 1, 1}, starved);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a.stats.complete);
  EXPECT_TRUE(b.stats.complete);
  EXPECT_GE(b.stats.executions, a.stats.executions);
  EXPECT_LE(b.stats.peak_cache_bytes, 32u * 1024u);
  if (a.stats.peak_cache_bytes > 32 * 1024) {
    EXPECT_GT(b.stats.cache_evictions, 0u);
  }
}

// ---------------------------------------------------------------------------
// Frontier files: round trip, parse hardening
// ---------------------------------------------------------------------------

TEST(FrontierTest, SerializeParseRoundTrips) {
  Frontier f;
  f.fingerprint = 0x1F2E3D4C5B6A7988ULL;
  f.complete = false;
  f.stats.executions = 1234;
  f.stats.schedule_digest = 0x60F38CFEECAD3890ULL;
  f.stats.states_visited = 999;
  f.stats.peak_cache_bytes = 4096;
  FrontierNode sched;
  sched.chosen = 1;
  sched.taken = 2;
  sched.candidates = 0b11;
  sched.sleep = 0b01;
  sched.ops.resize(2);
  sched.ops[0].kind = OpDesc::Kind::kWrite;
  sched.ops[0].object = 3;
  sched.ops[0].payload = -7;
  f.trail.push_back(sched);
  FrontierNode coin;
  coin.is_coin = true;
  coin.coin_value = true;
  coin.taken = 1;
  f.trail.push_back(coin);
  ExploreViolation v;
  v.failure = FailureClass::kConsistency;
  v.note = "decisions=0,1";
  v.schedule = {0, 1, 0, 1};
  v.flips = {true, false};
  f.violations.push_back(v);
  f.cache = {{kSeenZeroKey, 0}, {0x1BADB002DEADBEEFULL, 3}};

  std::string err;
  const auto parsed = parse_frontier(serialize_frontier(f), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->fingerprint, f.fingerprint);
  EXPECT_EQ(parsed->complete, f.complete);
  EXPECT_EQ(parsed->stats.executions, f.stats.executions);
  EXPECT_EQ(parsed->stats.schedule_digest, f.stats.schedule_digest);
  EXPECT_EQ(parsed->stats.states_visited, f.stats.states_visited);
  EXPECT_EQ(parsed->stats.peak_cache_bytes, f.stats.peak_cache_bytes);
  ASSERT_EQ(parsed->trail.size(), 2u);
  EXPECT_FALSE(parsed->trail[0].is_coin);
  EXPECT_EQ(parsed->trail[0].chosen, 1);
  EXPECT_EQ(parsed->trail[0].taken, 2);
  EXPECT_EQ(parsed->trail[0].candidates, 0b11u);
  EXPECT_EQ(parsed->trail[0].sleep, 0b01u);
  ASSERT_EQ(parsed->trail[0].ops.size(), 2u);
  EXPECT_EQ(parsed->trail[0].ops[0].kind, OpDesc::Kind::kWrite);
  EXPECT_EQ(parsed->trail[0].ops[0].object, 3);
  EXPECT_EQ(parsed->trail[0].ops[0].payload, -7);
  EXPECT_TRUE(parsed->trail[1].is_coin);
  EXPECT_TRUE(parsed->trail[1].coin_value);
  ASSERT_EQ(parsed->violations.size(), 1u);
  EXPECT_EQ(parsed->violations[0].failure, FailureClass::kConsistency);
  EXPECT_EQ(parsed->violations[0].schedule, v.schedule);
  EXPECT_EQ(parsed->violations[0].flips, v.flips);
  EXPECT_EQ(parsed->violations[0].note, v.note);
  EXPECT_EQ(parsed->cache, f.cache);
}

TEST(FrontierTest, ParseRejectsMalformedInput) {
  std::string err;
  // Wrong magic.
  EXPECT_FALSE(parse_frontier("bprc-shard v1\nend\n", &err).has_value());
  // Unsupported version.
  EXPECT_FALSE(parse_frontier("bprc-frontier v99\nend\n", &err).has_value());
  // Truncated (no `end` guard): a partially-written checkpoint must not
  // load as an empty-but-valid frontier.
  const Frontier empty;
  std::string text = serialize_frontier(empty);
  text.resize(text.rfind("end"));
  EXPECT_FALSE(parse_frontier(text, &err).has_value());
  EXPECT_FALSE(err.empty());
  // Garbage trail count.
  EXPECT_FALSE(
      parse_frontier("bprc-frontier v1\ntrail 5\nend\n", &err).has_value());
}

TEST(FrontierTest, UnknownKeysAreSkippedForForwardCompat) {
  Frontier f;
  f.fingerprint = 7;
  std::string text = serialize_frontier(f);
  text.insert(text.find("end"), "future-key some value\n");
  std::string err;
  const auto parsed = parse_frontier(text, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->fingerprint, 7u);
}

TEST(FrontierTest, HugeDeclaredCacheCountIsRefused) {
  // The count is untrusted input: reserving it would abort the resume
  // (std::length_error) instead of refusing the file.
  std::string text = serialize_frontier(Frontier{});
  text.replace(text.find("cache 0"), 7, "cache 999999999999999999");
  std::string err;
  EXPECT_FALSE(parse_frontier(text, &err).has_value());
  EXPECT_NE(err.find("declared count"), std::string::npos) << err;
}

TEST(FrontierTest, UnknownViolationClassIsRefused) {
  Frontier f;
  f.violations.push_back({FailureClass::kConsistency, "n", {0}, {}, {}});
  std::string text = serialize_frontier(f);
  text.replace(text.find("violation consistency"), 21,
               "violation consistensy");
  std::string err;
  EXPECT_FALSE(parse_frontier(text, &err).has_value());
  EXPECT_NE(err.find("unknown failure class"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Checkpoint / resume: the resumed digest is the uninterrupted digest
// ---------------------------------------------------------------------------

ConsensusExploreReport run_with_resume_cycles(const std::string& protocol,
                                              std::vector<int> inputs,
                                              ExploreLimits limits,
                                              std::uint64_t slice,
                                              unsigned resume_jobs,
                                              int* cycles_out) {
  const std::string path = testing::TempDir() + "/deepscale_" + protocol +
                           std::to_string(inputs.size()) + "_j" +
                           std::to_string(resume_jobs) + ".bprc-frontier";
  limits.max_executions = slice;
  FrontierOptions fresh;
  fresh.checkpoint_path = path;
  ConsensusExploreReport report =
      run_cell(protocol, inputs, limits, &fresh);
  int cycles = 0;
  while (!report.stats.complete) {
    ++cycles;
    EXPECT_LT(cycles, 10'000);
    if (cycles >= 10'000) break;
    std::string err;
    const auto frontier = load_frontier(path, &err);
    EXPECT_TRUE(frontier.has_value()) << err;
    if (!frontier.has_value()) break;
    FrontierOptions opts;
    opts.resume = &*frontier;
    opts.checkpoint_path = path;
    limits.max_executions = report.stats.executions + slice;
    limits.grade_jobs = resume_jobs;
    report = run_cell(protocol, inputs, limits, &opts);
  }
  if (cycles_out != nullptr) *cycles_out = cycles;
  std::remove(path.c_str());
  return report;
}

TEST(CheckpointResume, ResumedDigestMatchesUninterrupted) {
  const ExploreLimits limits = cell_limits(8, 3);
  const ConsensusExploreReport full = run_cell("bprc", {0, 1}, limits);
  ASSERT_TRUE(full.stats.complete);
  int cycles = 0;
  const ConsensusExploreReport resumed = run_with_resume_cycles(
      "bprc", {0, 1}, limits, /*slice=*/7, /*resume_jobs=*/1, &cycles);
  ASSERT_GT(cycles, 0) << "slice never interrupted the sweep; test is vacuous";
  EXPECT_EQ(resumed.stats.schedule_digest, full.stats.schedule_digest);
  EXPECT_EQ(resumed.stats.executions, full.stats.executions);
  EXPECT_EQ(resumed.stats.states_visited, full.stats.states_visited);
  EXPECT_EQ(resumed.violations.size(), full.violations.size());
}

TEST(CheckpointResume, ResumeUnderBatchedGradingMatchesToo) {
  // Interrupt serially, resume with the worker pool: the digest must
  // still land on the uninterrupted value (checkpoints are only taken at
  // drained pipeline boundaries).
  const ExploreLimits limits = cell_limits(8, 3);
  const ConsensusExploreReport full = run_cell("bprc", {0, 1}, limits);
  int cycles = 0;
  const ConsensusExploreReport resumed = run_with_resume_cycles(
      "bprc", {0, 1}, limits, /*slice=*/9, /*resume_jobs=*/4, &cycles);
  ASSERT_GT(cycles, 0);
  EXPECT_EQ(resumed.stats.schedule_digest, full.stats.schedule_digest);
  EXPECT_EQ(resumed.stats.executions, full.stats.executions);
}

TEST(CheckpointResume, ViolationsSurviveTheCheckpoint) {
  // Findings collected before the interrupt must come back with the
  // resumed run, not be rediscovered or dropped.
  ExploreLimits limits = cell_limits(8, 3);
  const ConsensusExploreReport full = run_cell("broken-racy", {0, 1}, limits);
  ASSERT_GT(full.violations.size(), 0u);
  int cycles = 0;
  const ConsensusExploreReport resumed = run_with_resume_cycles(
      "broken-racy", {0, 1}, limits, /*slice=*/5, /*resume_jobs=*/1, &cycles);
  ASSERT_GT(cycles, 0);
  ASSERT_EQ(resumed.violations.size(), full.violations.size());
  for (std::size_t i = 0; i < full.violations.size(); ++i) {
    EXPECT_EQ(resumed.violations[i].schedule, full.violations[i].schedule);
  }
  EXPECT_EQ(resumed.stats.schedule_digest, full.stats.schedule_digest);
}

TEST(CheckpointResume, CompleteFrontierShortCircuits) {
  const std::string path =
      testing::TempDir() + "/deepscale_complete.bprc-frontier";
  const ExploreLimits limits = cell_limits(8, 3);
  FrontierOptions fresh;
  fresh.checkpoint_path = path;
  const ConsensusExploreReport full = run_cell("bprc", {0, 1}, limits, &fresh);
  ASSERT_TRUE(full.stats.complete);
  std::string err;
  const auto frontier = load_frontier(path, &err);
  ASSERT_TRUE(frontier.has_value()) << err;
  EXPECT_TRUE(frontier->complete);
  FrontierOptions opts;
  opts.resume = &*frontier;
  const ConsensusExploreReport again = run_cell("bprc", {0, 1}, limits, &opts);
  // No re-exploration: the saved result is returned as-is.
  EXPECT_EQ(again.stats.schedule_digest, full.stats.schedule_digest);
  EXPECT_EQ(again.stats.executions, full.stats.executions);
  std::remove(path.c_str());
}

TEST(CheckpointResume, FingerprintIsPinned) {
  // The config fingerprint is what lets a saved `.bprc-frontier` resume:
  // any change to what it folds orphans every checkpoint on disk. The
  // pinned value is what `bprc_explore --protocol bprc --n 3 --inputs
  // 0,1,1 --depth 14 --coin-flips 2 --max-executions 400
  // --checkpoint-out F` writes.
  const std::string path =
      testing::TempDir() + "/deepscale_fingerprint.bprc-frontier";
  ExploreLimits limits;
  limits.branch_depth = 14;
  limits.max_coin_flips = 2;
  limits.max_executions = 400;
  FrontierOptions fresh;
  fresh.checkpoint_path = path;
  const ConsensusExploreReport report =
      run_cell("bprc", {0, 1, 1}, limits, &fresh);
  EXPECT_FALSE(report.stats.complete);
  EXPECT_EQ(report.stats.executions, 400u);
  std::string err;
  const auto frontier = load_frontier(path, &err);
  ASSERT_TRUE(frontier.has_value()) << err;
  EXPECT_EQ(frontier->fingerprint, 0x32ac216b37f73478ULL);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Frontier splitting: slices partition the root branching
// ---------------------------------------------------------------------------

TEST(DeepScale, SplitSlicesPartitionTheTree) {
  // With both prunings off, every execution belongs to exactly one root
  // branch, so the slice execution counts must sum to the full sweep's.
  ExploreLimits bare = cell_limits(6);
  bare.sleep_sets = false;
  bare.state_cache = false;
  const ConsensusExploreReport full = run_cell("bprc", {0, 1, 1}, bare);
  ASSERT_TRUE(full.stats.complete);
  std::uint64_t total = 0;
  for (std::uint32_t index = 0; index < 2; ++index) {
    ExploreLimits slice = bare;
    slice.split_index = index;
    slice.split_count = 2;
    const ConsensusExploreReport part = run_cell("bprc", {0, 1, 1}, slice);
    ASSERT_TRUE(part.stats.complete);
    EXPECT_TRUE(part.ok());
    total += part.stats.executions;
  }
  EXPECT_EQ(total, full.stats.executions);
}

// ---------------------------------------------------------------------------
// Isolated exploration: a process-killing protocol cannot take the DFS down
// ---------------------------------------------------------------------------

TEST(Isolate, BenignSegvSeedExploresClean) {
  // Odd seeds arm the benign variant: behaves like a correct protocol,
  // so an isolated sweep completes with no findings.
  ExploreLimits limits = cell_limits(6);
  limits.isolate_leaves = true;
  const ConsensusExploreReport report =
      run_cell("broken-segv", {0, 1}, limits, nullptr, /*seed=*/1);
  EXPECT_TRUE(report.ok()) << report.violations.size() << " violations";
  EXPECT_TRUE(report.stats.complete);
  EXPECT_EQ(report.stats.worker_crashes, 0u);
}

TEST(Isolate, IsolationMatchesInlineDigestOnCleanProtocols) {
  // Fork-isolation is a crash containment wrapper, not a semantic change:
  // on a well-behaved protocol the isolated sweep lands on the inline
  // sweep's digest.
  ExploreLimits inline_limits = cell_limits(8, 3);
  ExploreLimits isolated = inline_limits;
  isolated.isolate_leaves = true;
  const ConsensusExploreReport a = run_cell("bprc", {0, 1}, inline_limits);
  const ConsensusExploreReport b = run_cell("bprc", {0, 1}, isolated);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.stats.schedule_digest, b.stats.schedule_digest);
  EXPECT_EQ(a.stats.executions, b.stats.executions);
  EXPECT_EQ(a.stats.states_visited, b.stats.states_visited);
}

TEST(Isolate, LethalSegvSurfacesAsWorkerCrash) {
  // Even seeds arm the lethal variant: the first graded execution kills
  // its worker process. Under --isolate the parent survives, records a
  // kWorkerCrash finding, and the artifact round-trips the repro format.
  ExploreLimits limits = cell_limits(6);
  limits.isolate_leaves = true;
  limits.max_violations = 1;
  const ConsensusExploreReport report =
      run_cell("broken-segv", {0, 1}, limits, nullptr, /*seed=*/2);
  ASSERT_FALSE(report.ok()) << "lethal protocol produced no finding";
  EXPECT_GT(report.stats.worker_crashes, 0u);
  const ExploreViolation& v = report.violations.front();
  EXPECT_EQ(v.failure, FailureClass::kWorkerCrash);
  EXPECT_NE(v.note.find("worker died"), std::string::npos) << v.note;
  // The quarantine artifact survives the .bprc-repro text format (we do
  // NOT replay it in-process — that is the crash we just contained).
  const fault::Repro repro = make_explore_repro(report.config, v);
  std::string err;
  const auto parsed = fault::parse_repro(fault::serialize_repro(repro), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->failure, FailureClass::kWorkerCrash);
  EXPECT_EQ(parsed->schedule, v.schedule);
}

}  // namespace
}  // namespace bprc::explore

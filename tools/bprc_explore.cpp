// bprc_explore — bounded model checker CLI for small-n configurations.
//
// Where bprc_torture *samples* schedules, this tool *enumerates* them:
// every interleaving within a bounded branch region (plus both outcomes
// of the first few coin flips) is executed on the deterministic
// simulator and graded with the full consensus oracle. See
// docs/TESTING.md ("Exploration tier").
//
//   bprc_explore --smoke          n=2 exhaustive sweep of every registered
//                                 protocol (all 2^n input vectors): real
//                                 protocols must be clean, seeded-broken
//                                 protocols must be caught (exit 0 iff both)
//   bprc_explore --protocol P --n N   explore one protocol; exit 1 iff a
//                                 violation was found
//   bprc_explore --claim41        exhaustively interleave the token game
//                                 against the incremental distance graph
//   bprc_explore --list           registered protocols
//
// Violations are written as `.bprc-repro` artifacts (with --out DIR) that
// `bprc_torture --replay` confirms.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "engine/executor.hpp"
#include "explore/consensus_explore.hpp"
#include "explore/explorer.hpp"
#include "explore/frontier.hpp"
#include "explore/token_game_explore.hpp"
#include "fault/protocols.hpp"
#include "fault/repro.hpp"
#include "util/space_budget.hpp"

namespace {

using namespace bprc;
using namespace bprc::explore;

struct Options {
  bool smoke = false;
  bool list = false;
  bool stats = false;
  bool claim41 = false;
  bool sleep_sets = true;
  bool state_cache = true;
  bool isolate = false;
  std::vector<std::string> protocols;
  std::vector<int> inputs;  // non-empty = explore one input cell only
  int n = 2;
  int strip_k = 2;    // --claim41: token-game shrink constant K
  int moves = 3;      // --claim41: moves per process
  unsigned jobs = 1;  // leaf-grading workers; 0 = one per core
  RegisterSemantics semantics = RegisterSemantics::kAtomic;
  SpaceBudget space;  // default = paper budget
  std::uint64_t depth = 10;
  std::uint64_t coin_flips = 3;
  std::uint64_t max_stale_reads = 3;
  std::uint64_t budget = 200'000;
  std::uint64_t seed = 1;
  std::uint64_t max_cache_mb = 0;
  std::uint64_t max_executions = 0;
  std::uint64_t max_states = 0;
  std::size_t max_violations = 8;
  std::uint32_t split_index = 0;
  std::uint32_t split_count = 0;
  std::uint64_t checkpoint_every = 0;
  std::string checkpoint_out;  // empty = no frontier checkpoints
  std::string resume_path;     // non-empty = continue a saved frontier
  std::string out_dir;  // empty = do not write artifacts
};

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: bprc_explore [options]\n"
               "  --smoke            n=2 exhaustive sweep, all protocols\n"
               "  --claim41          token game vs distance graph\n"
               "  --list             print registered protocols\n"
               "  --protocol NAME    protocol to explore (repeatable)\n"
               "  --n N              process count (default 2)\n"
               "  --depth D          branch region: scheduling points\n"
               "                     explored with full branching\n"
               "  --coin-flips C     coin flips branched both ways\n"
               "  --register-semantics NAME\n"
               "                     explore under atomic|regular|safe\n"
               "                     register semantics (default atomic).\n"
               "                     Weakened reads become branch points:\n"
               "                     every adversary-resolvable stale value\n"
               "                     is enumerated like a coin flip\n"
               "  --max-stale-reads K\n"
               "                     stale reads branched exhaustively per\n"
               "                     execution (default 3; later reads take\n"
               "                     the atomic value)\n"
               "  --space SPEC       explore at a space budget, e.g. K=3,b=8\n"
               "                     (keys K cycle slots b mscale; default =\n"
               "                     paper budget; docs/SPACE_BUDGETS.md)\n"
               "  --budget STEPS     per-execution step budget\n"
               "  --seed S           seed for post-budget coins (default 1)\n"
               "  --moves M          --claim41: moves per process\n"
               "  --K K              --claim41: shrink constant\n"
               "  --max-violations K stop after K violations (default 8)\n"
               "  --max-executions K stop after K executions (0 = unlimited)\n"
               "  --max-states K     stop after K expanded states\n"
               "  --jobs J           leaf-grading worker threads (default 1\n"
               "                     = grade inline; 0 = one per core);\n"
               "                     results are byte-identical at any J\n"
               "  --inputs CSV       explore one input cell (e.g. 0,1,1,0)\n"
               "                     instead of all 2^n vectors\n"
               "  --isolate          run each execution in a fork()ed child\n"
               "                     first (a crash becomes a worker-crash\n"
               "                     finding; a clean one is re-run inline)\n"
               "  --max-cache-mb M   seen-state cache budget; over it the\n"
               "                     cache evicts deep entries\n"
               "  --checkpoint-out F write a .bprc-frontier checkpoint to F\n"
               "                     (at the end, and see --checkpoint-every)\n"
               "  --checkpoint-every K  also checkpoint every K executions\n"
               "  --resume F         continue a saved frontier (config must\n"
               "                     match; resumed digest equals an\n"
               "                     uninterrupted run's)\n"
               "  --frontier-split I/K  explore root slice I of K (offline\n"
               "                     sharding; union of slices covers the\n"
               "                     tree). Needs --inputs.\n"
               "  --out DIR          write .bprc-repro artifacts here\n"
               "  --stats            states/sec and prune-ratio report\n"
               "  --no-sleep-sets    disable partial-order reduction\n"
               "  --no-state-cache   disable seen-state merging\n");
}

bool parse_args(int argc, char** argv, Options& opt) {
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "bprc_explore: %s needs a value\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if (arg == "--smoke") opt.smoke = true;
    else if (arg == "--claim41") opt.claim41 = true;
    else if (arg == "--list") opt.list = true;
    else if (arg == "--stats") opt.stats = true;
    else if (arg == "--no-sleep-sets") opt.sleep_sets = false;
    else if (arg == "--no-state-cache") opt.state_cache = false;
    else if (arg == "--protocol") { if (!(v = need_value(i))) return false; opt.protocols.push_back(v); }
    else if (arg == "--n") { if (!(v = need_value(i))) return false; opt.n = std::atoi(v); }
    else if (arg == "--depth") { if (!(v = need_value(i))) return false; opt.depth = std::strtoull(v, nullptr, 10); }
    else if (arg == "--coin-flips") { if (!(v = need_value(i))) return false; opt.coin_flips = std::strtoull(v, nullptr, 10); }
    else if (arg == "--register-semantics") {
      if (!(v = need_value(i))) return false;
      if (!register_semantics_from_string(v, &opt.semantics)) {
        std::fprintf(stderr,
                     "bprc_explore: unknown register semantics '%s' "
                     "(this build knows atomic, regular, safe)\n", v);
        return false;
      }
    }
    else if (arg == "--space") {
      if (!(v = need_value(i))) return false;
      std::string why;
      const auto budget = SpaceBudget::parse(v, &why);
      if (!budget) {
        std::fprintf(stderr, "bprc_explore: bad --space '%s': %s\n", v,
                     why.c_str());
        return false;
      }
      opt.space = *budget;
    }
    else if (arg == "--max-stale-reads") { if (!(v = need_value(i))) return false; opt.max_stale_reads = std::strtoull(v, nullptr, 10); }
    else if (arg == "--budget") { if (!(v = need_value(i))) return false; opt.budget = std::strtoull(v, nullptr, 10); }
    else if (arg == "--seed") { if (!(v = need_value(i))) return false; opt.seed = std::strtoull(v, nullptr, 10); }
    else if (arg == "--moves") { if (!(v = need_value(i))) return false; opt.moves = std::atoi(v); }
    else if (arg == "--K") { if (!(v = need_value(i))) return false; opt.strip_k = std::atoi(v); }
    else if (arg == "--max-violations") { if (!(v = need_value(i))) return false; opt.max_violations = std::strtoull(v, nullptr, 10); }
    else if (arg == "--max-executions") { if (!(v = need_value(i))) return false; opt.max_executions = std::strtoull(v, nullptr, 10); }
    else if (arg == "--max-states") { if (!(v = need_value(i))) return false; opt.max_states = std::strtoull(v, nullptr, 10); }
    else if (arg == "--jobs") { if (!(v = need_value(i))) return false; opt.jobs = static_cast<unsigned>(std::strtoul(v, nullptr, 10)); }
    else if (arg == "--isolate") opt.isolate = true;
    else if (arg == "--max-cache-mb") { if (!(v = need_value(i))) return false; opt.max_cache_mb = std::strtoull(v, nullptr, 10); }
    else if (arg == "--checkpoint-out") { if (!(v = need_value(i))) return false; opt.checkpoint_out = v; }
    else if (arg == "--checkpoint-every") { if (!(v = need_value(i))) return false; opt.checkpoint_every = std::strtoull(v, nullptr, 10); }
    else if (arg == "--resume") { if (!(v = need_value(i))) return false; opt.resume_path = v; }
    else if (arg == "--frontier-split") {
      if (!(v = need_value(i))) return false;
      char* slash = nullptr;
      opt.split_index = static_cast<std::uint32_t>(std::strtoul(v, &slash, 10));
      if (slash == nullptr || *slash != '/') {
        std::fprintf(stderr, "bprc_explore: --frontier-split wants I/K\n");
        return false;
      }
      opt.split_count = static_cast<std::uint32_t>(std::strtoul(slash + 1, nullptr, 10));
    }
    else if (arg == "--inputs") {
      if (!(v = need_value(i))) return false;
      opt.inputs.clear();
      const char* p = v;
      while (*p != '\0') {
        char* end = nullptr;
        opt.inputs.push_back(static_cast<int>(std::strtol(p, &end, 10)));
        if (end == p) {
          std::fprintf(stderr, "bprc_explore: bad --inputs '%s'\n", v);
          return false;
        }
        p = *end == ',' ? end + 1 : end;
      }
    }
    else if (arg == "--out") { if (!(v = need_value(i))) return false; opt.out_dir = v; }
    else if (arg == "--help" || arg == "-h") { usage(stdout); std::exit(0); }
    else {
      std::fprintf(stderr, "bprc_explore: unknown option %s\n", arg.c_str());
      usage(stderr);
      return false;
    }
  }
  if (opt.n < 1 || opt.n > 8) {
    std::fprintf(stderr, "bprc_explore: --n must be in [1, 8] "
                         "(exhaustive exploration is exponential)\n");
    return false;
  }
  if (!opt.inputs.empty() &&
      opt.inputs.size() != static_cast<std::size_t>(opt.n)) {
    std::fprintf(stderr, "bprc_explore: --inputs wants %d values\n", opt.n);
    return false;
  }
  if (opt.isolate && opt.jobs > 1) {
    std::fprintf(stderr,
                 "bprc_explore: --isolate forks per execution; use --jobs 1\n");
    return false;
  }
  if (opt.split_count > 1 && opt.split_index >= opt.split_count) {
    std::fprintf(stderr, "bprc_explore: --frontier-split index out of range\n");
    return false;
  }
  const bool cell_only = !opt.resume_path.empty() ||
                         !opt.checkpoint_out.empty() || opt.split_count > 1;
  if (cell_only && (opt.inputs.empty() || opt.protocols.size() != 1)) {
    std::fprintf(stderr,
                 "bprc_explore: --resume/--checkpoint-out/--frontier-split "
                 "pin one exploration cell; give one --protocol and "
                 "--inputs\n");
    return false;
  }
  return true;
}

ExploreLimits build_limits(const Options& opt) {
  ExploreLimits limits;
  limits.branch_depth = opt.depth;
  limits.max_coin_flips = opt.coin_flips;
  limits.semantics = opt.semantics;
  limits.max_stale_reads = opt.max_stale_reads;
  limits.max_run_steps = opt.budget;
  limits.max_violations = opt.max_violations;
  limits.max_executions = opt.max_executions;
  limits.max_states = opt.max_states;
  limits.sleep_sets = opt.sleep_sets;
  limits.state_cache = opt.state_cache;
  limits.grade_jobs = opt.jobs == 0 ? engine::default_jobs() : opt.jobs;
  limits.max_cache_bytes = opt.max_cache_mb * 1024 * 1024;
  limits.isolate_leaves = opt.isolate;
  limits.split_index = opt.split_index;
  limits.split_count = opt.split_count;
  return limits;
}

void print_stats(const ExploreStats& s) {
  const std::uint64_t frontier =
      s.states_visited + s.states_merged + s.sleep_pruned;
  const double denom = frontier > 0 ? static_cast<double>(frontier) : 1.0;
  std::printf(
      "  stats: %llu executions (%llu complete, %llu truncated, %llu "
      "pruned), %llu states in %.2fs (%.0f states/s)\n",
      static_cast<unsigned long long>(s.executions),
      static_cast<unsigned long long>(s.complete_runs),
      static_cast<unsigned long long>(s.truncated_runs),
      static_cast<unsigned long long>(s.pruned_runs),
      static_cast<unsigned long long>(s.states_visited), s.seconds,
      s.seconds > 0 ? static_cast<double>(s.states_visited) / s.seconds : 0.0);
  std::printf(
      "  prune: %.1f%% state-cache merges, %.1f%% sleep-set skips "
      "(%llu merged, %llu slept, %llu blocked), %llu coin branches, "
      "max depth %llu, %llu sim steps\n",
      100.0 * static_cast<double>(s.states_merged) / denom,
      100.0 * static_cast<double>(s.sleep_pruned) / denom,
      static_cast<unsigned long long>(s.states_merged),
      static_cast<unsigned long long>(s.sleep_pruned),
      static_cast<unsigned long long>(s.sleep_blocked),
      static_cast<unsigned long long>(s.coin_branches),
      static_cast<unsigned long long>(s.max_trail_depth),
      static_cast<unsigned long long>(s.total_steps));
  std::printf(
      "  cache: %llu entries, peak %.2f MiB, %llu eviction(s); "
      "%llu worker crash(es); %.0f exec/s wall\n",
      static_cast<unsigned long long>(s.cache_entries),
      static_cast<double>(s.peak_cache_bytes) / (1024.0 * 1024.0),
      static_cast<unsigned long long>(s.cache_evictions),
      static_cast<unsigned long long>(s.worker_crashes),
      s.seconds > 0 ? static_cast<double>(s.executions) / s.seconds : 0.0);
  std::printf("  schedule digest: %016llx%s\n",
              static_cast<unsigned long long>(s.schedule_digest),
              s.complete ? "" : "  [INCOMPLETE: a safety valve fired]");
}

/// Writes one artifact per violation; returns paths written.
std::vector<std::string> write_artifacts(const Options& opt,
                                         const ConsensusExploreReport& report,
                                         std::size_t* artifact_index) {
  std::vector<std::string> paths;
  if (opt.out_dir.empty()) return paths;
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);  // best effort
  for (const ExploreViolation& v : report.violations) {
    const fault::Repro repro = make_explore_repro(report.config, v);
    std::string path = opt.out_dir;
    if (!path.empty() && path.back() != '/') path += '/';
    path += report.config.protocol + "-explore-n" +
            std::to_string(report.config.inputs.size()) + "-" +
            std::to_string((*artifact_index)++) + ".bprc-repro";
    if (fault::save_repro(path, repro)) {
      paths.push_back(path);
    } else {
      std::fprintf(stderr, "bprc_explore: cannot write %s\n", path.c_str());
    }
  }
  return paths;
}

struct ProtocolOutcome {
  std::uint64_t violations = 0;
  bool complete = true;
  ExploreStats merged;  ///< stats summed over every input cell
};

ProtocolOutcome explore_one_protocol(const Options& opt,
                                     const std::string& name,
                                     std::size_t* artifact_index) {
  const ExploreLimits limits = build_limits(opt);
  const auto reports = explore_consensus_all_inputs(
      name, opt.n, opt.seed, limits, opt.space);
  ProtocolOutcome outcome;
  for (const ConsensusExploreReport& report : reports) {
    outcome.violations += report.violations.size();
    outcome.complete = outcome.complete && report.stats.complete;
    outcome.merged.executions += report.stats.executions;
    outcome.merged.complete_runs += report.stats.complete_runs;
    outcome.merged.truncated_runs += report.stats.truncated_runs;
    outcome.merged.pruned_runs += report.stats.pruned_runs;
    outcome.merged.states_visited += report.stats.states_visited;
    outcome.merged.states_merged += report.stats.states_merged;
    outcome.merged.sleep_pruned += report.stats.sleep_pruned;
    outcome.merged.sleep_blocked += report.stats.sleep_blocked;
    outcome.merged.coin_branches += report.stats.coin_branches;
    outcome.merged.max_trail_depth =
        std::max(outcome.merged.max_trail_depth, report.stats.max_trail_depth);
    outcome.merged.total_steps += report.stats.total_steps;
    outcome.merged.worker_crashes += report.stats.worker_crashes;
    outcome.merged.cache_entries += report.stats.cache_entries;
    outcome.merged.peak_cache_bytes =
        std::max(outcome.merged.peak_cache_bytes, report.stats.peak_cache_bytes);
    outcome.merged.cache_evictions += report.stats.cache_evictions;
    outcome.merged.seconds += report.stats.seconds;
    outcome.merged.schedule_digest =
        fnv_mix(outcome.merged.schedule_digest, report.stats.schedule_digest);
    outcome.merged.complete = outcome.complete;
    for (const ExploreViolation& v : report.violations) {
      std::fprintf(stderr, "VIOLATION %s: protocol=%s inputs=",
                   to_string(v.failure), name.c_str());
      for (std::size_t i = 0; i < report.config.inputs.size(); ++i) {
        std::fprintf(stderr, "%s%d", i ? "," : "", report.config.inputs[i]);
      }
      std::fprintf(stderr, " schedule-len=%zu %s\n", v.schedule.size(),
                   v.note.c_str());
    }
    const auto paths = write_artifacts(opt, report, artifact_index);
    for (const std::string& p : paths) {
      std::fprintf(stderr, "  artifact: %s  (re-run: bprc_torture --replay "
                           "%s)\n",
                   p.c_str(), p.c_str());
    }
  }
  return outcome;
}

int run_claim41(const Options& opt) {
  ExploreLimits limits = build_limits(opt);
  const std::uint64_t need = static_cast<std::uint64_t>(opt.n) *
                             static_cast<std::uint64_t>(opt.moves);
  if (limits.branch_depth < need) limits.branch_depth = need;
  const ExploreResult result =
      explore_token_game(opt.n, opt.strip_k, opt.moves, limits, opt.seed);
  std::printf("claim41 n=%d K=%d moves=%d: %llu states, %llu executions%s\n",
              opt.n, opt.strip_k, opt.moves,
              static_cast<unsigned long long>(result.stats.states_visited),
              static_cast<unsigned long long>(result.stats.executions),
              result.ok() ? "" : "  [DIVERGED]");
  for (const ExploreViolation& v : result.violations) {
    std::fprintf(stderr, "VIOLATION %s: %s\n", to_string(v.failure),
                 v.note.c_str());
  }
  if (opt.stats) print_stats(result.stats);
  if (!result.stats.complete) {
    std::fprintf(stderr, "bprc_explore: claim41 exploration incomplete\n");
    return 1;
  }
  return result.ok() ? 0 : 1;
}

/// One (protocol, inputs) cell — the mode --inputs selects and the only
/// one checkpoint/resume and frontier splits compose with (a frontier
/// file pins exactly one cell's configuration).
int run_single_cell(const Options& opt, const std::string& name) {
  ConsensusExploreConfig config;
  config.protocol = name;
  config.inputs = opt.inputs;
  config.seed = opt.seed;
  config.space = opt.space;
  config.limits = build_limits(opt);

  FrontierOptions fopts;
  fopts.checkpoint_path = opt.checkpoint_out;
  fopts.checkpoint_every = opt.checkpoint_every;
  std::optional<Frontier> resumed;
  if (!opt.resume_path.empty()) {
    std::string err;
    resumed = load_frontier(opt.resume_path, &err);
    if (!resumed.has_value()) {
      std::fprintf(stderr, "bprc_explore: cannot resume %s: %s\n",
                   opt.resume_path.c_str(), err.c_str());
      return 2;
    }
    fopts.resume = &*resumed;
  }
  const bool use_frontier = fopts.resume != nullptr ||
                            !fopts.checkpoint_path.empty();
  const ConsensusExploreReport report =
      explore_consensus(config, use_frontier ? &fopts : nullptr);

  for (const ExploreViolation& v : report.violations) {
    std::fprintf(stderr, "VIOLATION %s: protocol=%s schedule-len=%zu %s\n",
                 to_string(v.failure), name.c_str(), v.schedule.size(),
                 v.note.c_str());
  }
  std::size_t artifact_index = 0;
  const auto paths = write_artifacts(opt, report, &artifact_index);
  for (const std::string& p : paths) {
    std::fprintf(stderr, "  artifact: %s\n", p.c_str());
  }
  std::printf("%-16s n=%d depth=%llu cell: %llu states, %llu executions, "
              "%zu violation(s)%s\n",
              name.c_str(), opt.n,
              static_cast<unsigned long long>(opt.depth),
              static_cast<unsigned long long>(report.stats.states_visited),
              static_cast<unsigned long long>(report.stats.executions),
              report.violations.size(),
              report.stats.complete ? "" : "  [incomplete]");
  if (opt.stats) print_stats(report.stats);
  if (!report.violations.empty()) return 1;
  if (!report.stats.complete) {
    // A valve stop with a checkpoint on disk is a scheduled pause, not a
    // failed verification: the frontier resumes it.
    if (!opt.checkpoint_out.empty()) return 0;
    std::fprintf(stderr,
                 "bprc_explore: exploration incomplete (a safety valve "
                 "fired); not a verification result\n");
    return 1;
  }
  return 0;
}

int run_explore(const Options& opt) {
  std::vector<std::string> protocols = opt.protocols;
  if (protocols.empty()) protocols = fault::protocol_names();
  // Validate against the full registry: an explicit --protocol may name a
  // crashes_process protocol (e.g. broken-segv, for --isolate runs) that
  // protocol_names() deliberately never lists.
  for (const std::string& name : protocols) {
    const auto& registry = fault::protocol_registry();
    const bool known =
        std::any_of(registry.begin(), registry.end(),
                    [&](const fault::ProtocolSpec& spec) {
                      return spec.name == name;
                    });
    if (!known) {
      std::fprintf(stderr, "bprc_explore: unknown protocol '%s'\n",
                   name.c_str());
      return 2;
    }
  }
  if (!opt.inputs.empty()) {
    if (protocols.size() != 1) {
      std::fprintf(stderr, "bprc_explore: --inputs wants one --protocol\n");
      return 2;
    }
    return run_single_cell(opt, protocols.front());
  }
  std::size_t artifact_index = 0;
  std::uint64_t total_violations = 0;
  bool all_complete = true;
  for (const std::string& name : protocols) {
    const ProtocolOutcome outcome =
        explore_one_protocol(opt, name, &artifact_index);
    std::printf("%-16s n=%d depth=%llu: %llu states, %llu executions, "
                "%llu violation(s)%s\n",
                name.c_str(), opt.n,
                static_cast<unsigned long long>(opt.depth),
                static_cast<unsigned long long>(outcome.merged.states_visited),
                static_cast<unsigned long long>(outcome.merged.executions),
                static_cast<unsigned long long>(outcome.violations),
                outcome.complete ? "" : "  [incomplete]");
    if (opt.stats) print_stats(outcome.merged);
    total_violations += outcome.violations;
    all_complete = all_complete && outcome.complete;
  }
  if (total_violations > 0) return 1;
  if (!all_complete) {
    std::fprintf(stderr,
                 "bprc_explore: exploration incomplete (a safety valve "
                 "fired); not a verification result\n");
    return 1;
  }
  return 0;
}

/// --smoke: the CI tier-1 mode. Exhaustively explores every registered
/// protocol at n=2 over all four input vectors; real protocols must come
/// out clean and seeded-broken protocols must be caught.
/// broken-needs-atomic is the one semantics-sensitive entry: its bug only
/// exists over weakened registers, so the smoke pins *both* directions —
/// clean under atomic semantics, caught under regular ones.
int run_smoke(const Options& base) {
  Options opt = base;
  opt.n = 2;
  opt.depth = std::min<std::uint64_t>(base.depth, 8);
  std::size_t artifact_index = 0;
  int rc = 0;
  for (const std::string& name :
       fault::protocol_names(/*include_broken=*/true)) {
    const bool broken = fault::protocol_spec(name).broken;
    Options cell = opt;
    bool weakened_pass = true;
    if (name == "broken-needs-atomic") {
      cell.semantics = RegisterSemantics::kAtomic;
      Options weak = opt;
      weak.semantics = RegisterSemantics::kRegular;
      const ProtocolOutcome weak_outcome =
          explore_one_protocol(weak, name, &artifact_index);
      weakened_pass = weak_outcome.violations > 0;
      std::printf("%-16s regular %llu states, %llu executions, %llu "
                  "violation(s) -> %s\n",
                  name.c_str(),
                  static_cast<unsigned long long>(
                      weak_outcome.merged.states_visited),
                  static_cast<unsigned long long>(
                      weak_outcome.merged.executions),
                  static_cast<unsigned long long>(weak_outcome.violations),
                  weakened_pass ? "ok" : "NOT CAUGHT");
      if (opt.stats) print_stats(weak_outcome.merged);
    }
    const ProtocolOutcome outcome =
        explore_one_protocol(cell, name, &artifact_index);
    const bool caught = outcome.violations > 0;
    // The semantics-sensitive protocol must be *clean* under this loop's
    // atomic pass — its "broken" obligation was discharged above.
    const bool expect_clean = !broken || name == "broken-needs-atomic";
    const bool pass = expect_clean ? (!caught && outcome.complete) : caught;
    std::printf("%-16s %-7s %llu states, %llu executions, %llu "
                "violation(s) -> %s\n",
                name.c_str(), broken ? "broken" : "real",
                static_cast<unsigned long long>(outcome.merged.states_visited),
                static_cast<unsigned long long>(outcome.merged.executions),
                static_cast<unsigned long long>(outcome.violations),
                pass ? "ok" : (expect_clean ? "FAILED" : "NOT CAUGHT"));
    if (opt.stats) print_stats(outcome.merged);
    if (!pass || !weakened_pass) rc = 1;
  }
  // Quick Claim 4.1 pass rides along: every interleaving of 2 processes
  // making 4 moves each.
  Options claim = opt;
  claim.moves = 4;
  const int claim_rc = run_claim41(claim);
  if (claim_rc != 0) rc = 1;
  std::printf("explore smoke: %s\n", rc == 0 ? "OK" : "FAILED");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  if (opt.list) {
    std::printf("protocols:");
    for (const auto& name : fault::protocol_names(/*include_broken=*/true)) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n");
    return 0;
  }
  if (opt.smoke) return run_smoke(opt);
  if (opt.claim41) return run_claim41(opt);
  return run_explore(opt);
}

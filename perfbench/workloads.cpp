#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "consensus/bprc.hpp"
#include "engine/executor.hpp"
#include "explore/consensus_explore.hpp"
#include "fault/campaign.hpp"
#include "fault/native.hpp"
#include "fault/protocols.hpp"
#include "probes.hpp"
#include "registers/native/native_scannable.hpp"
#include "runtime/fiber.hpp"
#include "runtime/sim_runtime.hpp"
#include "runtime/thread_runtime.hpp"
#include "shard/coordinator.hpp"
#include "shard/wire.hpp"
#include "snapshot/scannable_memory.hpp"
#include "strip/coin_slots.hpp"
#include "strip/edge_counters.hpp"
#include "util/assert.hpp"
#include "verify/weakmem/recorder.hpp"
#include "verify/weakmem/sc_checker.hpp"

namespace perfbench {

using namespace bprc;

namespace {

// ---------------------------------------------------------------- sizes
//
// One unit of work per workload. Each unit takes roughly 0.3-1.5 s on a
// 4-core x86-64 host, so a 10 s run repeats it often enough for a stable
// median.

constexpr int kCampaignN = 8;
constexpr std::uint64_t kCampaignSeeds = 16;  // x 7 adversaries x 5 inputs x 2
constexpr unsigned kCampaignJobs = 4;
/// Run lengths at n=8 are heavy-tailed, so one cell's mean run length
/// moves by about 10% with its seed. A run cycles through this many cells
/// derived from the seed and reports the median unit, so runs_per_s
/// follows the code rather than one seed's luck. (A shard-n2 cell holds
/// 35000 short runs and needs no cycling.)
constexpr std::size_t kCampaignCells = 8;

constexpr int kShardN = 2;
constexpr std::uint64_t kShardSeeds = 500;
constexpr unsigned kShardWorkers = 2;

constexpr std::uint64_t kExploreDepth = 24;
constexpr std::uint64_t kExploreFlips = 4;
constexpr unsigned kExploreJobs = 3;
/// Step budget of each execution's deterministic tail. Past the branch
/// region the coins come from the seed, and with the library's default
/// budget the tails' length, and so the cost per state, moves 2-8x from
/// one seed to the next. Capped here, a leaf that has not finished is
/// graded for safety only, as the explorer grades any truncated leaf.
constexpr std::uint64_t kExploreTailSteps = 600;

constexpr int kNativeN = 4;
constexpr int kNativeIters = 250;

/// Digests of the first unit at kDefaultSeed. At any seed, every later
/// pass of a unit, traced or sharded, must reproduce the unit's digest.
constexpr std::uint64_t kCampaignDigest = 0x4a641860e8bfb965ULL;
constexpr std::uint64_t kShardDigest = 0x25eb9f3b87def1dbULL;
constexpr std::uint64_t kExploreDigest = 0x11d63ab3916a6d47ULL;

/// Set-up samples taken before the timed phase, and after every timed unit.
constexpr int kSetupSamplesBefore = 21;
constexpr int kSetupSamplesPerUnit = 3;
constexpr std::size_t kMinUnits = 3;

// -------------------------------------------------------------- helpers

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU seconds this process has used, all threads.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident memory of this process so far, MiB. With `children`, the
/// larger of that and the peak of its largest waited-for child.
double peak_rss_mb(bool children = false) {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  long kib = self.ru_maxrss;
  if (children) {
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    kib = std::max(kib, kids.ru_maxrss);
  }
  return static_cast<double>(kib) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double quantile_us(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  return static_cast<double>(v[idx]) * 1e-3;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Moves the calling thread to the next CPU it may run on, round-robin,
/// and leaves its CPU set as it was. On a virtual machine whose CPUs share
/// cores with other tenants, one CPU can run a third slower than another
/// for tens of seconds, and the scheduler keeps a busy thread on its CPU,
/// so a single-threaded phase (the explorer's enumeration, the native
/// case's check, a set-up) would run at one CPU's speed for a whole run.
/// Moving it before every unit and every set-up sample spreads each run
/// over all CPUs.
void move_to_next_cpu() {
  static std::size_t turn = 0;
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  const std::size_t cpus = static_cast<std::size_t>(CPU_COUNT(&allowed));
  if (cpus < 2) return;
  std::size_t skip = turn++ % cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed) || skip-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    // Pinning migrates the thread at once; unpinning leaves it there.
    if (sched_setaffinity(0, sizeof one, &one) == 0) {
      sched_setaffinity(0, sizeof allowed, &allowed);
    }
    return;
  }
}

/// Times a workload's set-up: one untimed warm-up and kSetupSamplesBefore
/// samples at construction, before the timed phase, and
/// kSetupSamplesPerUnit more after every unit, so that the host's drift
/// over a run reaches the set-up figure as it reaches the rates. A sample
/// times `batch` set-ups back to back, so that one lasts a millisecond or
/// more.
class SetupTimer {
 public:
  SetupTimer(std::function<void()> setup, int batch)
      : setup_(std::move(setup)), batch_(batch) {
    setup_();  // untimed: first-touch page faults
    take(kSetupSamplesBefore);
  }

  void take(int samples) {
    for (int i = 0; i < samples; ++i) {
      move_to_next_cpu();
      const std::uint64_t t0 = now_ns();
      for (int b = 0; b < batch_; ++b) setup_();
      samples_.push_back(seconds_since(t0) / batch_);
    }
  }

  /// Median seconds of one set-up.
  double median_s() const { return median(samples_); }

 private:
  std::function<void()> setup_;
  int batch_;
  std::vector<double> samples_;
};

/// Runs unit 0 once as a warm-up, then units 0, 1, 2, ... until `seconds`
/// have passed (at least kMinUnits of them).
template <class F>
void repeat_units(double seconds, F&& unit) {
  move_to_next_cpu();
  unit(std::size_t{0}, /*warmup=*/true);
  const std::uint64_t t0 = now_ns();
  for (std::size_t done = 0; done < kMinUnits || seconds_since(t0) < seconds;
       ++done) {
    move_to_next_cpu();
    unit(done, /*warmup=*/false);
  }
}

/// Blocking-path accounting of traced passes: self seconds per layer, each
/// measured by its own spans, and the traced wall they must add up to.
struct LayerSum {
  std::map<std::string, double> self_s;
  double wall_s = 0.0;

  void add(const std::string& layer, double s) { self_s[layer] += s; }

  /// Copies the table into `out`. With `check`, the table must add up to
  /// the wall within kLayerSumTolerance; returns the relative error
  /// (trace.layer_sum_error), or 0 when the table is not checked.
  double finish(WorkloadResult& out, bool check = true) const {
    double sum = 0.0;
    for (const auto& [layer, s] : self_s) {
      out.layers.push_back({layer, s});
      sum += s;
    }
    out.traced_wall_s = wall_s;
    out.layer_sum_checked = check;
    if (!check) return 0.0;
    const double err = wall_s == 0.0 ? 1.0 : (wall_s - sum) / wall_s;
    if (std::abs(err) > kLayerSumTolerance) {
      out.errors.push_back("layer self times do not add up to the traced wall");
      out.correct = false;
    }
    return err;
  }
};

/// Names of the per-layer metrics, in report order. A traced run reports
/// every one; layers a workload does not exercise read 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"runtime.ns_per_step", "ns"},
      {"runtime.steps_per_run", "count"},
      {"runtime.max_proc_steps_per_run", "count"},
      {"runtime.handoffs_per_step", "ratio"},
      {"runtime.ctx_switch_ns", "ns"},
      {"runtime.pick_ns", "ns"},
      {"registers.value_ops_per_run", "count"},
      {"registers.arrow_ops_per_run", "count"},
      {"snapshot.scans_per_run", "count"},
      {"snapshot.attempts_per_scan", "ratio"},
      {"snapshot.scan_yield", "ratio"},
      {"snapshot.scan_ns", "ns"},
      {"snapshot.write_ns", "ns"},
      {"coin.flips_per_run", "count"},
      {"strip.max_round", "count"},
      {"consensus.oracle_ns", "ns"},
      {"engine.trial_p50_us", "us"},
      {"engine.trial_p99_us", "us"},
      {"engine.trial_samples", "count"},
      {"engine.busy_share", "ratio"},
      {"engine.deliver_wait_us", "us"},
      {"fault.fold_ns", "ns"},
      {"fault.schedule_picks_per_run", "count"},
      {"shard.record_bytes", "bytes"},
      {"shard.serialize_ns", "ns"},
      {"shard.parse_ns", "ns"},
      {"shard.overhead_share", "ratio"},
      {"explore.states", "count"},
      {"explore.executions", "count"},
      {"explore.sleep_skip_ratio", "ratio"},
      {"explore.cache_merge_ratio", "ratio"},
      {"explore.peak_cache_mb", "MiB"},
      {"explore.dfs_share", "ratio"},
      {"explore.leaf_ns", "ns"},
      {"weakmem.actions_per_run", "count"},
      {"weakmem.check_ns_per_action", "ns"},
      {"native.record_ns_per_action", "ns"},
      {"native.unchecked_steps_per_s", "steps/s"},
      {"trace_overhead", "ratio"},
      {"trace.layer_sum_error", "ratio"},
  };
  return names;
}

/// Emits every per-layer metric: the measured ones from `values`, 0 for
/// the rest.
void emit_layer_metrics(const std::map<std::string, double>& values,
                        WorkloadResult& out) {
  for (const auto& [name, unit] : layer_metric_units()) {
    const auto it = values.find(name);
    out.metrics.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
}

void emit_end_to_end(WorkloadResult& out, double runs_per_s,
                     double states_per_s, double checked_steps_per_s,
                     double setup_s, double peak_mb) {
  out.metrics = {
      {"runs_per_s", runs_per_s, "runs/s"},
      {"states_per_s", states_per_s, "states/s"},
      {"checked_steps_per_s", checked_steps_per_s, "steps/s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_mb, "MiB"},
  };
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void fail(WorkloadResult& out, std::uint64_t ops, const std::string& why) {
  out.failed += ops;
  out.correct = false;
  if (std::find(out.errors.begin(), out.errors.end(), why) == out.errors.end()) {
    out.errors.push_back(why);
  }
}

// ------------------------------------------------------- direct probes

double probe_ctx_switch_ns() {
  constexpr std::uint64_t kRounds = 200'000;
  Fiber* self = nullptr;
  Fiber ping([&self] {
    for (;;) self->yield();
  });
  self = &ping;
  ping.resume();  // warm the stack
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < kRounds; ++i) ping.resume();
  return static_cast<double>(now_ns() - t0) / static_cast<double>(kRounds) / 2.0;
}

/// Always runs the lowest-numbered runnable process: process 0 scans and
/// writes alone, so neither operation ever retries.
class SoloAdversary final : public Adversary {
 public:
  ProcId pick(SimCtl& ctl) override {
    for (ProcId p = 0; p < ctl.nprocs(); ++p) {
      if (ctl.view(p).runnable) return p;
    }
    return -1;
  }
  std::string name() const override { return "solo"; }
};

struct SnapshotProbe {
  double scan_ns = 0.0;
  double write_ns = 0.0;
};

/// Solo write and scan latency of ScannableMemory<BPRCRecord> at n
/// processes, with records shaped like the protocol's own.
SnapshotProbe probe_snapshot(int n) {
  constexpr int kIters = 4000;
  SimRuntime rt(n, std::make_unique<SoloAdversary>(), 1);
  BPRCRecord rec;
  rec.pref = kPref0;
  rec.coins = CoinSlots::with_slot_count(3);
  rec.edges = initial_edge_counters(n);
  ScannableMemory<BPRCRecord> mem(rt, rec);
  std::uint64_t scan_ns = 0;
  std::uint64_t write_ns = 0;
  rt.spawn(0, [&] {
    std::vector<BPRCRecord> view;
    BPRCRecord mine = rec;
    for (int i = 0; i < kIters; ++i) {
      mine.pref = static_cast<std::int8_t>(i & 1);
      const std::uint64_t t0 = now_ns();
      mem.write(mine);
      const std::uint64_t t1 = now_ns();
      mem.scan_into(view);
      const std::uint64_t t2 = now_ns();
      write_ns += t1 - t0;
      scan_ns += t2 - t1;
    }
  });
  for (ProcId p = 1; p < n; ++p) rt.spawn(p, [] {});
  const RunResult run = rt.run(~std::uint64_t{0});
  BPRC_REQUIRE(run.reason == RunResult::Reason::kAllDone, "snapshot probe");
  return {static_cast<double>(scan_ns) / kIters,
          static_cast<double>(write_ns) / kIters};
}

struct WireProbe {
  double record_bytes = 0.0;
  double serialize_ns = 0.0;
  double parse_ns = 0.0;
  bool ok = true;
};

/// serialize_record / parse_record over a workload's own records; every
/// record must round-trip.
WireProbe probe_wire(const std::vector<shard::IndexedRecord>& records) {
  WireProbe out;
  if (records.empty()) return out;
  std::uint64_t bytes = 0;
  std::uint64_t ser_ns = 0;
  std::uint64_t parse_ns = 0;
  std::string err;
  for (const auto& [index, rec] : records) {
    const std::uint64_t t0 = now_ns();
    const std::string text = shard::serialize_record(index, rec);
    const std::uint64_t t1 = now_ns();
    const std::optional<shard::IndexedRecord> back =
        shard::parse_record(text, &err);
    const std::uint64_t t2 = now_ns();
    ser_ns += t1 - t0;
    parse_ns += t2 - t1;
    bytes += text.size();
    out.ok = out.ok && back.has_value() && back->first == index &&
             back->second.digest == rec.digest &&
             back->second.steps == rec.steps &&
             back->second.reason == rec.reason &&
             back->second.failure == rec.failure;
  }
  const auto n = static_cast<double>(records.size());
  out.record_bytes = static_cast<double>(bytes) / n;
  out.serialize_ns = static_cast<double>(ser_ns) / n;
  out.parse_ns = static_cast<double>(parse_ns) / n;
  return out;
}

// -------------------------------------------------------------- campaigns

fault::CampaignConfig campaign_config(int n, std::uint64_t seeds,
                                      std::uint64_t seed, unsigned jobs) {
  fault::CampaignConfig config;
  config.protocols = {"bprc"};
  config.ns = {n};
  config.seeds_per_cell = seeds;  // every registry adversary, crash plans on
  config.seed0 = seed;
  config.jobs = jobs;
  return config;
}

struct CampaignPass {
  fault::CampaignReport report;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< in-process passes only
  std::uint64_t steps = 0;
};

CampaignPass campaign_pass(const fault::CampaignConfig& config) {
  CampaignPass pass;
  const double cpu0 = process_cpu_s();
  const std::uint64_t t0 = now_ns();
  pass.report = fault::run_campaign(
      config, [&pass](const fault::TortureRun&, const ConsensusRunResult& r) {
        pass.steps += r.total_steps;
      });
  pass.wall_s = seconds_since(t0);
  pass.cpu_s = process_cpu_s() - cpu0;
  return pass;
}

CampaignPass sharded_pass(const fault::CampaignConfig& config,
                          unsigned workers) {
  shard::ShardServiceConfig service;
  service.campaign = config;
  service.campaign.jobs = 1;
  service.workers = workers;
  CampaignPass pass;
  const std::uint64_t t0 = now_ns();
  pass.report = shard::run_sharded_campaign(service);
  pass.wall_s = seconds_since(t0);
  return pass;
}

/// Counts and spans of traced campaign passes, summed over passes.
struct CampaignTrace {
  std::uint64_t runs = 0;
  std::uint64_t steps = 0;
  std::uint64_t max_proc_steps = 0;
  std::uint64_t picks = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t timed_picks = 0;
  std::uint64_t timed_pick_ns = 0;
  std::uint64_t value_reads = 0;
  std::uint64_t value_ops = 0;
  std::uint64_t arrow_ops = 0;
  std::uint64_t scans = 0;
  std::uint64_t flips = 0;
  std::int64_t max_round = 0;
  std::uint64_t schedule_picks = 0;
  std::uint64_t trial_ns = 0;
  std::uint64_t oracle_ns = 0;
  std::uint64_t fold_ns = 0;
  std::uint64_t deliver_wait_ns = 0;
  double exec_wall_s = 0.0;  ///< executor phase wall, summed over passes
  std::vector<std::uint64_t> trial_spans_ns;
  std::vector<shard::IndexedRecord> records;  ///< of the latest pass
};

/// Mean pick time from the sampled picks, less the clock read inside
/// each sample.
double mean_pick_ns(std::uint64_t timed_ns, std::uint64_t timed_picks) {
  if (timed_picks == 0) return 0.0;
  return std::max(0.0, static_cast<double>(timed_ns) /
                               static_cast<double>(timed_picks) -
                           clock_read_ns());
}

struct TracedTrial {
  explicit TracedTrial(int n) : trace(n) {}
  engine::TrialOutcome outcome;
  TrialTrace trace;
  std::uint64_t gap_ns = 0;  ///< engine time on its thread before the trial
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// When the benchmark's last lambda returned on this thread; 0 before the
/// first. The executor starts fresh threads for every run_ordered call.
thread_local std::uint64_t t_lambda_exit_ns = 0;

/// The executor's own time on this thread since the benchmark's previous
/// lambda returned: claiming, locking and waiting for work. A thread's
/// lead-in before its first lambda and its tail after the last one stay
/// unmeasured, and are what the layer-sum check can catch.
std::uint64_t engine_gap_ns(std::uint64_t now) {
  return t_lambda_exit_ns == 0 ? 0 : now - t_lambda_exit_ns;
}

/// run_campaign's loop, rebuilt on TrialExecutor::run_ordered with the
/// probes in the work lambda and spans around the generator and the fold.
/// Returns the report, whose digest must equal the untraced pass's.
fault::CampaignReport traced_campaign_pass(const fault::CampaignConfig& config,
                                           CampaignTrace& acc, LayerSum& sum) {
  const std::uint64_t t0 = now_ns();
  fault::CampaignReport report;
  std::vector<fault::TortureRun> runs = fault::enumerate_campaign_runs(
      config, &report.skipped_crash_cells, &report.skipped_safe_cells,
      &report.skipped_space_cells);
  const std::uint64_t t1 = now_ns();
  acc.records.clear();
  acc.records.reserve(runs.size());

  const unsigned jobs = config.jobs;
  // Thread time of the executor phase, by span. The generator and the sink
  // run under the executor's lock, so they add to these directly.
  std::uint64_t trial_ns = 0, oracle_ns = 0, fold_ns = 0, sink_ns = 0,
                gen_ns = 0, engine_ns = 0;
  const std::uint64_t picks0 = acc.picks, timed0 = acc.timed_picks,
                      timed_ns0 = acc.timed_pick_ns;
  std::size_t next = 0;
  t_lambda_exit_ns = 0;  // the serial executor runs on this thread
  const engine::TrialExecutor executor({jobs, 0});
  executor.run_ordered<engine::TrialSpec, TracedTrial>(
      [&]() -> std::optional<engine::TrialSpec> {
        const std::uint64_t g0 = now_ns();
        engine_ns += engine_gap_ns(g0);
        std::optional<engine::TrialSpec> spec;
        if (next < runs.size()) {
          spec = fault::to_trial_spec(runs[next++], config.run_deadline, true);
        }
        t_lambda_exit_ns = now_ns();
        gen_ns += t_lambda_exit_ns - g0;
        return spec;
      },
      [](const engine::TrialSpec& spec, SimReuse& reuse) {
        TracedTrial t(spec.n());
        t.start_ns = now_ns();
        t.gap_ns = engine_gap_ns(t.start_ns);
        t.outcome = traced_run_trial(spec, reuse, t.trace);
        t.end_ns = now_ns();
        t_lambda_exit_ns = t.end_ns;
        return t;
      },
      [&](std::size_t index, const engine::TrialSpec&, TracedTrial&& t) {
        const std::uint64_t s0 = now_ns();
        engine_ns += engine_gap_ns(s0) + t.gap_ns;
        const TrialTrace& tr = t.trace;
        const ConsensusRunResult& res = t.outcome.result;
        acc.deliver_wait_ns += s0 - t.end_ns;
        acc.trial_spans_ns.push_back(t.end_ns - t.start_ns);
        trial_ns += t.end_ns - t.start_ns;
        oracle_ns += tr.oracle_end_ns - tr.oracle_start_ns;
        acc.runs += 1;
        acc.steps += res.total_steps;
        acc.max_proc_steps += res.max_proc_steps;
        acc.picks += tr.picks;
        acc.handoffs += tr.handoffs;
        acc.timed_picks += tr.timed_picks;
        acc.timed_pick_ns += tr.timed_pick_ns;
        acc.value_reads += tr.sink.value_reads;
        acc.value_ops += tr.sink.value_reads + tr.sink.value_writes;
        acc.arrow_ops += tr.sink.arrow_reads + tr.sink.arrow_writes;
        acc.scans += tr.scans;
        acc.flips += tr.flips;
        acc.max_round = std::max(acc.max_round, tr.max_round);
        acc.schedule_picks += t.outcome.schedule.size();

        const std::uint64_t f0 = now_ns();
        fault::OutcomeRecord rec = fault::make_outcome_record(
            std::move(runs[index]), std::move(t.outcome));
        const std::uint64_t f1 = now_ns();
        fault::OutcomeRecord wire;  // passing runs ship without detail
        wire.digest = rec.digest;
        wire.steps = rec.steps;
        wire.reason = rec.reason;
        wire.failure = rec.failure;
        acc.records.emplace_back(index, std::move(wire));
        const std::uint64_t f2 = now_ns();
        const bool more = fault::fold_outcome_record(report, std::move(rec),
                                                     config.max_failures);
        const std::uint64_t f3 = now_ns();
        fold_ns += (f1 - f0) + (f3 - f2);
        t_lambda_exit_ns = now_ns();
        sink_ns += t_lambda_exit_ns - s0;
        return more;
      });
  const std::uint64_t t2 = now_ns();

  // Self time on the blocking path: the serial matrix build, then the
  // executor phase, where each layer's thread time, engine gaps included,
  // is shared over `jobs` workers.
  const double j = static_cast<double>(jobs);
  const double exec_s = static_cast<double>(t2 - t1) * 1e-9;
  const double pick_s =
      mean_pick_ns(acc.timed_pick_ns - timed_ns0, acc.timed_picks - timed0) *
      static_cast<double>(acc.picks - picks0) * 1e-9;
  sum.add("fault", static_cast<double>(t1 - t0) * 1e-9 +
                       static_cast<double>(fold_ns + gen_ns) * 1e-9 / j);
  sum.add("runtime",
          (static_cast<double>(trial_ns - oracle_ns) * 1e-9 - pick_s) / j);
  sum.add("runtime.adversary", pick_s / j);
  sum.add("consensus", static_cast<double>(oracle_ns) * 1e-9 / j);
  sum.add("trace", static_cast<double>(sink_ns - fold_ns) * 1e-9 / j);
  sum.add("engine", static_cast<double>(engine_ns) * 1e-9 / j);
  sum.wall_s += static_cast<double>(t2 - t0) * 1e-9;

  acc.trial_ns += trial_ns;
  acc.oracle_ns += oracle_ns;
  acc.fold_ns += fold_ns;
  acc.exec_wall_s += exec_s;
  return report;
}

std::map<std::string, double> campaign_layer_values(const CampaignTrace& t,
                                                    int n, unsigned jobs) {
  const auto runs = static_cast<double>(t.runs);
  const double attempts =
      static_cast<double>(t.value_reads) / (2.0 * static_cast<double>(n - 1));
  std::map<std::string, double> v;
  v["runtime.ns_per_step"] =
      ratio(static_cast<double>(t.trial_ns), static_cast<double>(t.steps));
  v["runtime.steps_per_run"] = ratio(static_cast<double>(t.steps), runs);
  v["runtime.max_proc_steps_per_run"] =
      ratio(static_cast<double>(t.max_proc_steps), runs);
  v["runtime.handoffs_per_step"] =
      ratio(static_cast<double>(t.handoffs), static_cast<double>(t.picks));
  v["runtime.pick_ns"] = mean_pick_ns(t.timed_pick_ns, t.timed_picks);
  v["registers.value_ops_per_run"] = ratio(static_cast<double>(t.value_ops), runs);
  v["registers.arrow_ops_per_run"] = ratio(static_cast<double>(t.arrow_ops), runs);
  v["snapshot.scans_per_run"] = ratio(static_cast<double>(t.scans), runs);
  v["snapshot.attempts_per_scan"] = ratio(attempts, static_cast<double>(t.scans));
  v["snapshot.scan_yield"] = ratio(static_cast<double>(t.scans), attempts);
  v["coin.flips_per_run"] = ratio(static_cast<double>(t.flips), runs);
  v["strip.max_round"] = static_cast<double>(t.max_round);
  v["consensus.oracle_ns"] = ratio(static_cast<double>(t.oracle_ns), runs);
  v["engine.trial_p50_us"] = quantile_us(t.trial_spans_ns, 0.50);
  v["engine.trial_p99_us"] = quantile_us(t.trial_spans_ns, 0.99);
  v["engine.trial_samples"] = static_cast<double>(t.trial_spans_ns.size());
  v["engine.busy_share"] = ratio(static_cast<double>(t.trial_ns) * 1e-9,
                                 t.exec_wall_s * static_cast<double>(jobs));
  v["engine.deliver_wait_us"] =
      ratio(static_cast<double>(t.deliver_wait_ns) * 1e-3, runs);
  v["fault.fold_ns"] = ratio(static_cast<double>(t.fold_ns), runs);
  v["fault.schedule_picks_per_run"] =
      ratio(static_cast<double>(t.schedule_picks), runs);
  return v;
}

WorkloadResult run_campaign_workload(bool sharded, std::uint64_t seed,
                                     double seconds, bool trace) {
  WorkloadResult out;
  const int n = sharded ? kShardN : kCampaignN;
  const std::uint64_t seeds = sharded ? kShardSeeds : kCampaignSeeds;
  const unsigned jobs = sharded ? kShardWorkers : kCampaignJobs;
  struct Cell {
    fault::CampaignConfig config;
    std::optional<std::uint64_t> digest;  ///< of its first clean pass
    std::uint64_t runs = 0;
    std::uint64_t steps = 0;  ///< counted by in-process passes
  };
  std::vector<Cell> cells(sharded ? 1 : kCampaignCells);
  for (std::size_t k = 0; k < cells.size(); ++k) {
    // Cell k's per-cell seeds start where cell k-1's end: no shared runs.
    cells[k].config = campaign_config(n, seeds, seed + k * seeds * 7919, jobs);
  }
  const std::uint64_t pinned = sharded ? kShardDigest : kCampaignDigest;

  // A cell's first clean pass becomes its reference; every later pass of
  // the cell, on any lane, must reproduce its digest. At the default seed
  // the first cell must also hit the pinned digest.
  auto check = [&](Cell& c, const CampaignPass& pass, const std::string& what) {
    const fault::CampaignReport& r = pass.report;
    out.attempted += r.runs;
    const std::uint64_t bad =
        r.failures.size() + r.deadline_aborts + r.budget_aborts;
    bool ok = r.ok() && bad == 0;
    if (ok && !c.digest.has_value()) {
      c.digest = r.summary_digest;
      c.runs = r.runs;
      if (seed == kDefaultSeed && &c == &cells.front() && *c.digest != pinned) {
        fail(out, r.runs, "digest differs from the pinned default-seed digest");
      }
    }
    ok = ok && c.digest.has_value() && r.summary_digest == *c.digest &&
         r.runs == c.runs;
    if (!ok) {
      fail(out, std::max<std::uint64_t>(bad, 1), what);
    } else if (pass.steps != 0) {
      c.steps = pass.steps;
    }
    return ok;
  };
  auto note_cells = [&] {
    for (const Cell& c : cells) {
      if (!c.digest.has_value()) continue;
      out.notes.push_back("cell " + std::to_string(&c - cells.data()) + ": " +
                          std::to_string(c.runs) + " runs, " +
                          std::to_string(c.steps) + " steps, summary_digest " +
                          hex(*c.digest));
    }
  };

  if (!trace) {
    // Building the trial list of every cell: the matrix and its specs.
    SetupTimer setup(
        [&] {
          for (const Cell& c : cells) {
            const std::vector<fault::TortureRun> runs =
                fault::enumerate_campaign_runs(c.config, nullptr);
            std::uint64_t fp = fault::campaign_matrix_fingerprint(c.config, runs);
            for (const fault::TortureRun& run : runs) {
              fp ^= fault::to_trial_spec(run, c.config.run_deadline).inputs.size();
            }
            BPRC_REQUIRE(fp != 0 && !runs.empty(), "campaign matrix");
          }
        },
        /*batch=*/1);
    std::vector<double> walls;
    std::vector<std::size_t> cell_of;
    repeat_units(seconds, [&](std::size_t unit, bool warmup) {
      Cell& c = cells[unit % cells.size()];
      const CampaignPass pass = sharded ? sharded_pass(c.config, kShardWorkers)
                                        : campaign_pass(c.config);
      const bool ok = check(c, pass,
                            sharded ? "sharded digest differs between passes"
                                    : "campaign digest differs between passes");
      setup.take(kSetupSamplesPerUnit);
      if (!ok || warmup) return;
      walls.push_back(pass.wall_s);
      cell_of.push_back(unit % cells.size());
    });
    // Taken before the sharded lane's in-process check below, so that it
    // covers the lane itself: the coordinator and its forked workers.
    const double peak_mb = peak_rss_mb(/*children=*/sharded);
    if (sharded && cells.front().digest.has_value()) {
      Cell& c = cells.front();
      check(c, campaign_pass(c.config),
            "sharded digest differs from the in-process digest");
    }
    note_cells();
    std::vector<double> runs_s, steps_s;
    for (std::size_t i = 0; i < walls.size(); ++i) {
      const Cell& c = cells[cell_of[i]];
      runs_s.push_back(static_cast<double>(c.runs) / walls[i]);
      steps_s.push_back(static_cast<double>(c.steps) / walls[i]);
    }
    // Every simulated step belongs to a graded run, so on the campaign
    // lanes states/s and checked steps/s are the same count.
    emit_end_to_end(out, median(runs_s), median(steps_s), median(steps_s),
                    setup.median_s(), peak_mb);
    return out;
  }

  // Each unit: the untraced in-process pass, the sharded pass (shard-n2),
  // and the traced in-process pass of the same cell.
  CampaignTrace acc;
  LayerSum sum;
  std::vector<double> untraced_s, traced_s, overhead_share;
  repeat_units(seconds, [&](std::size_t unit, bool warmup) {
    Cell& c = cells[unit % cells.size()];
    const CampaignPass inproc = campaign_pass(c.config);
    if (!check(c, inproc, "campaign digest differs between passes")) return;
    std::optional<CampaignPass> forked;
    if (sharded) {
      forked = sharded_pass(c.config, kShardWorkers);
      if (!check(c, *forked,
                 "sharded digest differs from the in-process digest")) {
        return;
      }
    }
    const std::uint64_t t0 = now_ns();
    const fault::CampaignReport report =
        traced_campaign_pass(c.config, acc, sum);
    const double wall = seconds_since(t0);
    out.attempted += report.runs;
    if (report.summary_digest != *c.digest || report.runs != c.runs) {
      fail(out, report.runs, "traced digest differs from the untraced digest");
    }
    if (warmup) return;
    untraced_s.push_back(inproc.wall_s);
    traced_s.push_back(wall);
    if (sharded) {
      // Share of the workers' wall time the in-process lane does not need
      // for the same cell (its untraced CPU time): fork, wire text, record
      // fold and supervision.
      overhead_share.push_back(
          1.0 - inproc.cpu_s / (forked->wall_s * kShardWorkers));
    }
  });

  std::map<std::string, double> v = campaign_layer_values(acc, n, jobs);
  v["runtime.ctx_switch_ns"] = probe_ctx_switch_ns();
  const SnapshotProbe snap = probe_snapshot(n);
  v["snapshot.scan_ns"] = snap.scan_ns;
  v["snapshot.write_ns"] = snap.write_ns;
  const WireProbe wire = probe_wire(acc.records);
  if (!wire.ok) fail(out, 1, "a record did not survive serialize/parse");
  v["shard.record_bytes"] = wire.record_bytes;
  v["shard.serialize_ns"] = wire.serialize_ns;
  v["shard.parse_ns"] = wire.parse_ns;
  if (sharded) v["shard.overhead_share"] = median(overhead_share);
  v["trace_overhead"] = ratio(median(traced_s), median(untraced_s));
  v["trace.layer_sum_error"] = sum.finish(out);
  emit_layer_metrics(v, out);
  note_cells();
  return out;
}

// ---------------------------------------------------------------- explore

explore::ConsensusExploreConfig explore_config(std::uint64_t seed) {
  explore::ConsensusExploreConfig config;
  config.protocol = "bprc";
  config.inputs = {0, 1, 1};
  config.seed = seed;
  config.limits.branch_depth = kExploreDepth;
  config.limits.max_coin_flips = kExploreFlips;
  config.limits.grade_jobs = kExploreJobs;
  config.limits.max_run_steps = kExploreTailSteps;
  return config;
}

bool explore_ok(const explore::ExploreStats& stats, std::size_t violations) {
  return stats.complete && violations == 0;
}

WorkloadResult run_explore_workload(std::uint64_t seed, double seconds,
                                    bool trace) {
  WorkloadResult out;
  const explore::ConsensusExploreConfig config = explore_config(seed);
  std::optional<std::uint64_t> digest;
  if (seed == kDefaultSeed) digest = kExploreDigest;

  struct Pass {
    explore::ExploreStats stats;
    double wall_s = 0.0;
    bool ok = false;
  };
  auto untraced = [&]() -> Pass {
    Pass pass;
    const std::uint64_t t0 = now_ns();
    const explore::ConsensusExploreReport report =
        explore::explore_consensus(config);
    pass.wall_s = seconds_since(t0);
    pass.stats = report.stats;
    out.attempted += report.stats.executions;
    if (!digest.has_value()) digest = report.stats.schedule_digest;
    if (out.notes.empty()) {
      out.notes.push_back(
          "unit: " + std::to_string(report.stats.executions) + " executions, " +
          std::to_string(report.stats.states_visited) +
          " states, schedule_digest " + hex(report.stats.schedule_digest));
    }
    pass.ok = explore_ok(report.stats, report.violations.size()) &&
              report.stats.schedule_digest == *digest;
    if (!pass.ok) {
      fail(out, std::max<std::uint64_t>(report.violations.size(), 1),
           "explorer tree incomplete, violated, or digest mismatch");
    }
    return pass;
  };

  if (!trace) {
    // Explorer construction, seen-state cache and a single execution: the
    // fixed cost every exploration pays. Serial, so that thread start-up,
    // whose cost swings with the host's load, stays out of the figure.
    SetupTimer setup(
        [&] {
          explore::ConsensusExploreConfig tiny = config;
          tiny.limits.branch_depth = 0;
          tiny.limits.grade_jobs = 1;
          const explore::ConsensusExploreReport r =
              explore::explore_consensus(tiny);
          BPRC_REQUIRE(r.ok() && r.stats.executions == 1,
                       "explorer set-up probe");
        },
        /*batch=*/32);
    std::vector<double> execs_s, states_s, steps_s;
    repeat_units(seconds, [&](std::size_t, bool warmup) {
      const Pass pass = untraced();
      setup.take(kSetupSamplesPerUnit);
      if (!pass.ok || warmup) return;
      execs_s.push_back(static_cast<double>(pass.stats.executions) / pass.wall_s);
      states_s.push_back(static_cast<double>(pass.stats.states_visited) /
                         pass.wall_s);
      steps_s.push_back(static_cast<double>(pass.stats.total_steps) / pass.wall_s);
    });
    emit_end_to_end(out, median(execs_s), median(states_s), median(steps_s),
                    setup.median_s(), peak_rss_mb());
    return out;
  }

  ExploreTrace acc;
  LayerSum sum;
  explore::ExploreStats last;
  double dfs_cpu_s = 0.0;
  double traced_wall_s = 0.0;
  std::vector<double> untraced_s, traced_s;
  repeat_units(seconds, [&](std::size_t, bool warmup) {
    const Pass pass = untraced();
    if (!pass.ok) return;
    TracedConsensusTarget target(
        fault::make_protocol(config.protocol, 3, config.seed, config.space),
        config.inputs, acc);
    const double cpu0 = thread_cpu_s();
    const std::uint64_t t0 = now_ns();
    const explore::ExploreResult res =
        explore::explore(target, config.limits, config.seed);
    const double wall = seconds_since(t0);
    const double cpu = thread_cpu_s() - cpu0;
    out.attempted += res.stats.executions;
    if (!explore_ok(res.stats, res.violations.size()) ||
        res.stats.schedule_digest != *digest) {
      fail(out, res.stats.executions,
           "traced explorer digest differs from the untraced digest");
    }
    // The calling thread enumerates; it is the blocking path. Its CPU time
    // is the explorer's (with the executions it drives); the rest of the
    // wall it spends waiting for the grading pipeline. That wait happens
    // inside the explorer, where no seam reaches, so it can only be taken
    // as wall - CPU: the table adds up by construction and is not checked.
    sum.add("explore", cpu);
    sum.add("engine", wall - cpu);
    sum.wall_s += wall;
    dfs_cpu_s += cpu;
    traced_wall_s += wall;
    last = res.stats;
    if (warmup) return;
    untraced_s.push_back(pass.wall_s);
    traced_s.push_back(wall);
  });

  const auto leaves = static_cast<double>(acc.leaves.load());
  const auto counted = static_cast<double>(acc.counted_leaves.load());
  // Every scan attempt reads the other n-1 value registers twice.
  const double attempts = static_cast<double>(acc.value_reads.load()) /
                          (2.0 * static_cast<double>(config.inputs.size() - 1));
  std::uint64_t leaf_ns = 0;
  for (const std::uint64_t s : acc.leaf_spans_ns) leaf_ns += s;
  std::map<std::string, double> v;
  v["runtime.ns_per_step"] = ratio(static_cast<double>(leaf_ns),
                                   static_cast<double>(acc.leaf_steps.load()));
  v["runtime.steps_per_run"] =
      ratio(static_cast<double>(acc.leaf_steps.load()), leaves);
  v["runtime.max_proc_steps_per_run"] =
      ratio(static_cast<double>(acc.leaf_max_proc_steps.load()), leaves);
  v["runtime.ctx_switch_ns"] = probe_ctx_switch_ns();
  v["registers.value_ops_per_run"] =
      ratio(static_cast<double>(acc.value_ops.load()), counted);
  v["registers.arrow_ops_per_run"] =
      ratio(static_cast<double>(acc.arrow_ops.load()), counted);
  v["snapshot.scans_per_run"] = ratio(static_cast<double>(acc.scans.load()), leaves);
  // Attempts are counted on the leaves that carried a counting sink.
  const double counted_scans =
      ratio(static_cast<double>(acc.scans.load()) * counted, leaves);
  v["snapshot.attempts_per_scan"] = ratio(attempts, counted_scans);
  v["snapshot.scan_yield"] = ratio(counted_scans, attempts);
  const SnapshotProbe snap = probe_snapshot(3);
  v["snapshot.scan_ns"] = snap.scan_ns;
  v["snapshot.write_ns"] = snap.write_ns;
  v["coin.flips_per_run"] = ratio(static_cast<double>(acc.flips.load()), leaves);
  v["strip.max_round"] = static_cast<double>(acc.max_round.load());
  v["consensus.oracle_ns"] = ratio(static_cast<double>(acc.oracle_ns.load()), leaves);
  v["engine.trial_p50_us"] = quantile_us(acc.leaf_spans_ns, 0.50);
  v["engine.trial_p99_us"] = quantile_us(acc.leaf_spans_ns, 0.99);
  v["engine.trial_samples"] = static_cast<double>(acc.leaf_spans_ns.size());
  v["engine.busy_share"] =
      ratio(static_cast<double>(leaf_ns) * 1e-9, traced_wall_s * kExploreJobs);
  v["explore.states"] = static_cast<double>(last.states_visited);
  v["explore.executions"] = static_cast<double>(last.executions);
  v["explore.sleep_skip_ratio"] =
      ratio(static_cast<double>(last.sleep_pruned),
            static_cast<double>(last.sleep_pruned + last.executions));
  v["explore.cache_merge_ratio"] =
      ratio(static_cast<double>(last.states_merged),
            static_cast<double>(last.states_merged + last.states_visited));
  v["explore.peak_cache_mb"] =
      static_cast<double>(last.peak_cache_bytes) / (1024.0 * 1024.0);
  v["explore.dfs_share"] = ratio(dfs_cpu_s, traced_wall_s);
  v["explore.leaf_ns"] = ratio(static_cast<double>(leaf_ns), counted);
  v["trace_overhead"] = ratio(median(traced_s), median(untraced_s));
  v["trace.layer_sum_error"] = sum.finish(out, /*check=*/false);
  emit_layer_metrics(v, out);
  return out;
}

// ----------------------------------------------------------------- native

NativeRunOptions native_options(std::uint64_t seed, bool check_sc) {
  NativeRunOptions opts;
  opts.nprocs = kNativeN;
  opts.seed = seed;
  opts.iters = kNativeIters;
  opts.check_sc = check_sc;
  return opts;
}

struct NativeTraced {
  std::size_t actions = 0;
  std::uint64_t steps = 0;
  std::uint64_t max_proc_steps = 0;
  double record_s = 0.0;
  double check_s = 0.0;
  bool ok = false;
};

/// The scan-storm case of fault/native.cpp with spans around the recorded
/// run and the offline check.
NativeTraced traced_scan_storm(const NativeRunOptions& opts) {
  NativeTraced out;
  const std::uint64_t t0 = now_ns();
  ThreadRuntime rt(opts.nprocs, opts.seed, opts.yield_prob);
  weakmem::WeakMemRecorder recorder(opts.nprocs);
  recorder.recording().case_name = "scan-storm";
  rt.set_mem_sink(&recorder);
  NativeScannableMemory mem(rt, 0);
  for (ProcId p = 0; p < opts.nprocs; ++p) {
    rt.spawn(p, [&mem, p, iters = opts.iters] {
      std::vector<std::uint64_t> view;
      for (int i = 0; i < iters; ++i) {
        mem.write(static_cast<std::uint64_t>(i + 1));
        mem.scan_into(view);
        BPRC_REQUIRE(view[static_cast<std::size_t>(p)] ==
                         static_cast<std::uint64_t>(i + 1),
                     "scan lost the scanner's own write");
      }
    });
  }
  const RunResult run = rt.run(opts.max_steps, opts.deadline);
  const std::uint64_t t1 = now_ns();
  const weakmem::SCResult sc = weakmem::check_sc(recorder.recording());
  const std::uint64_t t2 = now_ns();
  out.actions = recorder.recording().total_actions();
  out.steps = run.steps;
  for (ProcId p = 0; p < opts.nprocs; ++p) {
    out.max_proc_steps = std::max(out.max_proc_steps, rt.steps(p));
  }
  out.record_s = static_cast<double>(t1 - t0) * 1e-9;
  out.check_s = static_cast<double>(t2 - t1) * 1e-9;
  out.ok = run.reason == RunResult::Reason::kAllDone && sc.ok();
  return out;
}

WorkloadResult run_native_workload(std::uint64_t seed, double seconds,
                                   bool trace) {
  WorkloadResult out;
  struct Pass {
    NativeOutcome outcome;
    double wall_s = 0.0;
  };
  auto untraced = [&](bool check_sc) -> std::optional<Pass> {
    Pass pass;
    const std::uint64_t t0 = now_ns();
    pass.outcome = run_native_case("scan-storm", native_options(seed, check_sc));
    pass.wall_s = seconds_since(t0);
    out.attempted += 1;
    if (!pass.outcome.ok()) {
      fail(out, 1, "native scan-storm failed its run or SC check");
      return std::nullopt;
    }
    return pass;
  };

  if (!trace) {
    // The case's shared state: thread runtime, recorder and the scannable
    // memory's location table. Thread start-up, whose cost swings with the
    // host's load, stays out of the figure.
    SetupTimer setup(
        [&] {
          const NativeRunOptions opts = native_options(seed, true);
          ThreadRuntime rt(opts.nprocs, opts.seed, opts.yield_prob);
          weakmem::WeakMemRecorder recorder(opts.nprocs);
          rt.set_mem_sink(&recorder);
          NativeScannableMemory mem(rt, 0);
          BPRC_REQUIRE(!recorder.recording().locations.empty(),
                       "native set-up");
        },
        /*batch=*/1024);
    std::vector<double> runs_s, steps_s, checked_s;
    repeat_units(seconds, [&](std::size_t, bool warmup) {
      const std::optional<Pass> pass = untraced(true);
      setup.take(kSetupSamplesPerUnit);
      if (!pass.has_value() || warmup) return;
      runs_s.push_back(1.0 / pass->wall_s);
      steps_s.push_back(static_cast<double>(pass->outcome.run.steps) / pass->wall_s);
      checked_s.push_back(static_cast<double>(pass->outcome.actions) /
                          pass->wall_s);
    });
    emit_end_to_end(out, median(runs_s), median(steps_s), median(checked_s),
                    setup.median_s(), peak_rss_mb());
    return out;
  }

  LayerSum sum;
  std::vector<double> untraced_s, traced_s, unchecked_rate;
  std::uint64_t actions = 0, steps = 0, max_proc = 0, traced_runs = 0;
  double record_s = 0.0, check_s = 0.0;
  repeat_units(seconds, [&](std::size_t, bool warmup) {
    const std::optional<Pass> pass = untraced(true);
    if (!pass.has_value()) return;
    const std::uint64_t t0 = now_ns();
    const NativeTraced t = traced_scan_storm(native_options(seed, true));
    const double wall = seconds_since(t0);
    out.attempted += 1;
    if (!t.ok) {
      fail(out, 1, "traced native scan-storm failed its run or SC check");
      return;
    }
    sum.add("registers.native", t.record_s);
    sum.add("verify", t.check_s);
    sum.wall_s += wall;
    const std::optional<Pass> unchecked = untraced(false);
    if (warmup || !unchecked.has_value()) return;
    actions += t.actions;
    steps += t.steps;
    max_proc += t.max_proc_steps;
    record_s += t.record_s;
    check_s += t.check_s;
    ++traced_runs;
    untraced_s.push_back(pass->wall_s);
    traced_s.push_back(wall);
    unchecked_rate.push_back(static_cast<double>(unchecked->outcome.run.steps) /
                             unchecked->wall_s);
  });

  const auto runs = static_cast<double>(traced_runs);
  const auto acts = static_cast<double>(actions);
  std::map<std::string, double> v;
  v["runtime.ns_per_step"] = ratio(record_s * 1e9, static_cast<double>(steps));
  v["runtime.steps_per_run"] = ratio(static_cast<double>(steps), runs);
  v["runtime.max_proc_steps_per_run"] = ratio(static_cast<double>(max_proc), runs);
  v["runtime.ctx_switch_ns"] = probe_ctx_switch_ns();
  const SnapshotProbe snap = probe_snapshot(kNativeN);
  v["snapshot.scan_ns"] = snap.scan_ns;
  v["snapshot.write_ns"] = snap.write_ns;
  v["weakmem.actions_per_run"] = ratio(acts, runs);
  v["weakmem.check_ns_per_action"] = ratio(check_s * 1e9, acts);
  v["native.record_ns_per_action"] = ratio(record_s * 1e9, acts);
  v["native.unchecked_steps_per_s"] = median(unchecked_rate);
  v["trace_overhead"] = ratio(median(traced_s), median(untraced_s));
  v["trace.layer_sum_error"] = sum.finish(out);
  emit_layer_metrics(v, out);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"campaign-n8", "shard-n2",
                                                 "explore-n3", "native-n4"};
  return names;
}

WorkloadResult run_workload(const std::string& name, std::uint64_t seed,
                            double seconds, bool trace) {
  if (name == "campaign-n8") return run_campaign_workload(false, seed, seconds, trace);
  if (name == "shard-n2") return run_campaign_workload(true, seed, seconds, trace);
  if (name == "explore-n3") return run_explore_workload(seed, seconds, trace);
  if (name == "native-n4") return run_native_workload(seed, seconds, trace);
  BPRC_REQUIRE(false, "unknown workload");
  return {};
}

}  // namespace perfbench

// Behavioral tests for the adversary scheduling strategies.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "runtime/adversary.hpp"
#include "runtime/sim_runtime.hpp"
#include "util/rng.hpp"

namespace bprc {
namespace {

/// Runs n spinning processes under `adv` for `steps` steps and returns the
/// schedule (who ran at each step).
std::vector<ProcId> schedule_of(int n, std::unique_ptr<Adversary> adv,
                                std::uint64_t steps,
                                std::function<void(SimRuntime&, ProcId)>
                                    hinter = nullptr) {
  SimRuntime rt(n, std::move(adv), 1);
  std::vector<ProcId> trace;
  for (ProcId p = 0; p < n; ++p) {
    rt.spawn(p, [&rt, &trace, p, &hinter] {
      // Record BEFORE parking at the checkpoint so trace[k] is exactly the
      // k-th scheduling decision the adversary made.
      for (;;) {
        if (hinter) hinter(rt, p);
        trace.push_back(p);
        rt.checkpoint({});
      }
    });
  }
  rt.run(steps);
  return trace;
}

TEST(RoundRobin, StrictRotation) {
  const auto trace = schedule_of(4, std::make_unique<RoundRobinAdversary>(),
                                 12);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i], static_cast<ProcId>(i % 4));
  }
}

TEST(Random, CoversAllProcesses) {
  const auto trace =
      schedule_of(5, std::make_unique<RandomAdversary>(3), 500);
  std::set<ProcId> seen(trace.begin(), trace.end());
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Random, SeededReproducibly) {
  const auto a = schedule_of(5, std::make_unique<RandomAdversary>(3), 200);
  const auto b = schedule_of(5, std::make_unique<RandomAdversary>(3), 200);
  const auto c = schedule_of(5, std::make_unique<RandomAdversary>(4), 200);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Lockstep, EveryProcessOncePerPhase) {
  const int n = 6;
  const auto trace =
      schedule_of(n, std::make_unique<LockstepAdversary>(9), 60);
  ASSERT_EQ(trace.size(), 60u);
  for (std::size_t phase = 0; phase < trace.size() / n; ++phase) {
    std::set<ProcId> in_phase(trace.begin() + static_cast<long>(phase * n),
                              trace.begin() + static_cast<long>((phase + 1) * n));
    EXPECT_EQ(in_phase.size(), static_cast<std::size_t>(n))
        << "phase " << phase << " scheduled someone twice";
  }
}

TEST(LeaderSuppress, SchedulesMinimalRoundProcess) {
  // Process p publishes round = p; the adversary must keep picking the
  // process with the smallest published round (p = 0).
  auto hinter = [](SimRuntime& rt, ProcId p) {
    Hint h;
    h.round = p;
    rt.publish_hint(h);
  };
  const auto trace = schedule_of(
      4, std::make_unique<LeaderSuppressAdversary>(5), 300, hinter);
  // A process's published round appears once it has been scheduled once;
  // from the point where everyone has run (and so published), only the
  // minimal-round process (p0) may be scheduled.
  std::set<ProcId> seen;
  std::size_t all_seen_at = trace.size();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    seen.insert(trace[i]);
    if (seen.size() == 4) {
      all_seen_at = i;
      break;
    }
  }
  ASSERT_LT(all_seen_at, trace.size()) << "not every process got scheduled";
  for (std::size_t i = all_seen_at + 1; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i], 0) << "non-minimal process scheduled at " << i;
  }
}

TEST(CoinBias, PrefersStepsTowardZero) {
  // Two processes: p0 always about to +1, p1 always about to -1. With the
  // published counters summing positive, the adversary must prefer p1.
  SimRuntime* rtp = nullptr;
  auto adv = std::make_unique<CoinBiasAdversary>(7);
  SimRuntime rt(2, std::move(adv), 1);
  rtp = &rt;
  std::vector<ProcId> trace;
  for (ProcId p = 0; p < 2; ++p) {
    rt.spawn(p, [rtp, &trace, p] {
      for (;;) {
        Hint h;
        h.counter = 10;                     // walk looks positive
        h.walk_delta = (p == 0) ? 1 : -1;   // p1 moves toward zero
        rtp->publish_hint(h);
        rtp->checkpoint({});
        trace.push_back(p);
      }
    });
  }
  rt.run(80);
  // Early picks happen before the hints are published; once they are, the
  // adversary must exclusively favor p1 (the toward-zero step). Check the
  // tail of the schedule.
  ASSERT_GE(trace.size(), 40u);
  for (std::size_t i = trace.size() - 30; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i], 1);
  }
}

TEST(Scripted, ReplaysExactly) {
  const std::vector<ProcId> script{2, 0, 1, 1, 2, 0};
  auto trace = schedule_of(
      3, std::make_unique<ScriptedAdversary>(script), script.size());
  EXPECT_EQ(trace, script);
}

TEST(Scripted, FallsBackToRoundRobinAfterScript) {
  const std::vector<ProcId> script{1, 1};
  const auto trace = schedule_of(
      2, std::make_unique<ScriptedAdversary>(script), 6);
  EXPECT_EQ(trace[0], 1);
  EXPECT_EQ(trace[1], 1);
  // Fallback covers both processes.
  std::set<ProcId> tail(trace.begin() + 2, trace.end());
  EXPECT_EQ(tail.size(), 2u);
}

TEST(Scripted, SkipsUnrunnableEntries) {
  // Script names a crashed process; it must be skipped, not deadlock.
  auto inner = std::make_unique<ScriptedAdversary>(
      std::vector<ProcId>{0, 0, 0, 0, 0, 0});
  auto plan = std::make_unique<CrashPlanAdversary>(
      std::move(inner), std::vector<CrashPlanAdversary::Crash>{{2, 0}});
  const auto trace = schedule_of(2, std::move(plan), 10);
  // After the crash, only process 1 can run.
  for (std::size_t i = 2; i < trace.size(); ++i) EXPECT_EQ(trace[i], 1);
}

TEST(CrashPlan, CrashesAtScheduledStep) {
  auto plan = std::make_unique<CrashPlanAdversary>(
      std::make_unique<RoundRobinAdversary>(),
      std::vector<CrashPlanAdversary::Crash>{{6, 1}});
  SimRuntime rt(3, std::move(plan), 1);
  std::vector<ProcId> trace;
  for (ProcId p = 0; p < 3; ++p) {
    rt.spawn(p, [&rt, &trace, p] {
      for (;;) {
        rt.checkpoint({});
        trace.push_back(p);
      }
    });
  }
  rt.run(30);
  EXPECT_TRUE(rt.crashed(1));
  // Process 1 never appears after the crash point.
  const auto last1 = std::find(trace.rbegin(), trace.rend(), 1);
  const auto idx = trace.size() - 1 -
                   static_cast<std::size_t>(last1 - trace.rbegin());
  EXPECT_LT(idx, 8u);
}

TEST(Recording, ReplayReproducesTheSchedule) {
  // Record a random schedule, then replay it through ScriptedAdversary:
  // the two runs must produce identical traces — the debugging loop for
  // randomized-test failures.
  auto recorder = std::make_unique<RecordingAdversary>(
      std::make_unique<RandomAdversary>(99));
  RecordingAdversary* handle = recorder.get();
  SimRuntime rt1(3, std::move(recorder), 99);
  std::vector<ProcId> trace1;
  for (ProcId p = 0; p < 3; ++p) {
    rt1.spawn(p, [&rt1, &trace1, p] {
      for (int k = 0; k < 20; ++k) {
        trace1.push_back(p);
        rt1.checkpoint({});
      }
    });
  }
  rt1.run(1000);
  const std::vector<ProcId> script = handle->script();
  ASSERT_FALSE(script.empty());

  SimRuntime rt2(3, std::make_unique<ScriptedAdversary>(script), 1234);
  std::vector<ProcId> trace2;
  for (ProcId p = 0; p < 3; ++p) {
    rt2.spawn(p, [&rt2, &trace2, p] {
      for (int k = 0; k < 20; ++k) {
        trace2.push_back(p);
        rt2.checkpoint({});
      }
    });
  }
  rt2.run(1000);
  EXPECT_EQ(trace1, trace2);
}

// --- Reference oracle -----------------------------------------------------
//
// The count-then-scan picks the mask-based strategies replaced, kept here
// verbatim in behaviour: each counts its candidates over view(p), draws
// below(count) and scans to the k-th candidate in id order. The strategies
// must make the same draws and return the same process at every pick.

ProcId ref_uniform_runnable(const SimCtl& ctl, Rng& rng) {
  int count = 0;
  for (ProcId p = 0; p < ctl.nprocs(); ++p) {
    if (ctl.view(p).runnable) ++count;
  }
  if (count == 0) return -1;
  std::uint64_t k = rng.below(static_cast<std::uint64_t>(count));
  for (ProcId p = 0; p < ctl.nprocs(); ++p) {
    if (ctl.view(p).runnable && k-- == 0) return p;
  }
  return -2;
}

int ref_draw_read(Rng& rng, const StaleRead& sr) {
  return static_cast<int>(rng.below(static_cast<std::uint64_t>(sr.options)));
}

class RefRandom final : public Adversary {
 public:
  explicit RefRandom(std::uint64_t seed) : rng_(seed) {}
  ProcId pick(SimCtl& ctl) override { return ref_uniform_runnable(ctl, rng_); }
  std::string name() const override { return "ref-random"; }
  int resolve_read(SimCtl&, const StaleRead& sr) override {
    return ref_draw_read(rng_, sr);
  }

 private:
  Rng rng_;
};

class RefRoundRobin final : public Adversary {
 public:
  ProcId pick(SimCtl& ctl) override {
    const int n = ctl.nprocs();
    for (int offset = 1; offset <= n; ++offset) {
      const ProcId p = static_cast<ProcId>((last_ + offset) % n);
      if (ctl.view(p).runnable) {
        last_ = p;
        return p;
      }
    }
    return -1;
  }
  std::string name() const override { return "ref-round-robin"; }
  int resolve_read(SimCtl&, const StaleRead& sr) override {
    return static_cast<int>(stale_turn_++ %
                            static_cast<std::uint64_t>(sr.options));
  }

 private:
  ProcId last_ = -1;
  std::uint64_t stale_turn_ = 0;
};

class RefLockstep final : public Adversary {
 public:
  explicit RefLockstep(std::uint64_t seed) : rng_(seed) {}
  ProcId pick(SimCtl& ctl) override {
    std::erase_if(phase_, [&](ProcId p) { return !ctl.view(p).runnable; });
    if (phase_.empty()) {
      for (ProcId p = 0; p < ctl.nprocs(); ++p) {
        if (ctl.view(p).runnable) phase_.push_back(p);
      }
      if (phase_.empty()) return -1;
      for (std::size_t i = phase_.size(); i > 1; --i) {
        std::swap(phase_[i - 1], phase_[rng_.below(i)]);
      }
    }
    const ProcId p = phase_.back();
    phase_.pop_back();
    return p;
  }
  std::string name() const override { return "ref-lockstep"; }
  int resolve_read(SimCtl&, const StaleRead& sr) override {
    return ref_draw_read(rng_, sr);
  }

 private:
  Rng rng_;
  std::vector<ProcId> phase_;
};

class RefLeaderSuppress final : public Adversary {
 public:
  explicit RefLeaderSuppress(std::uint64_t seed) : rng_(seed) {}
  ProcId pick(SimCtl& ctl) override {
    const int n = ctl.nprocs();
    std::int32_t min_round = 0;
    bool any = false;
    for (ProcId p = 0; p < n; ++p) {
      if (!ctl.view(p).runnable) continue;
      const std::int32_t round = ctl.view(p).hint.round;
      min_round = any ? std::min(min_round, round) : round;
      any = true;
    }
    if (!any) return -1;
    int laggards = 0;
    for (ProcId p = 0; p < n; ++p) {
      if (ctl.view(p).runnable && ctl.view(p).hint.round == min_round) {
        ++laggards;
      }
    }
    std::uint64_t k = rng_.below(static_cast<std::uint64_t>(laggards));
    for (ProcId p = 0; p < n; ++p) {
      if (ctl.view(p).runnable && ctl.view(p).hint.round == min_round &&
          k-- == 0) {
        return p;
      }
    }
    return -2;
  }
  std::string name() const override { return "ref-leader-suppress"; }
  int resolve_read(SimCtl&, const StaleRead& sr) override {
    return sr.options - 1;
  }

 private:
  Rng rng_;
};

class RefCoinBias final : public Adversary {
 public:
  explicit RefCoinBias(std::uint64_t seed) : rng_(seed) {}
  ProcId pick(SimCtl& ctl) override {
    const int n = ctl.nprocs();
    std::int64_t walk = 0;
    for (ProcId p = 0; p < n; ++p) walk += ctl.view(p).hint.counter;
    const auto preferred = [&](ProcId p) {
      const int delta = ctl.view(p).hint.walk_delta;
      return walk != 0 ? (static_cast<std::int64_t>(delta) * walk < 0)
                       : (delta == 0);
    };
    int count = 0;
    for (ProcId p = 0; p < n; ++p) {
      if (ctl.view(p).runnable && preferred(p)) ++count;
    }
    if (count == 0) return ref_uniform_runnable(ctl, rng_);
    std::uint64_t k = rng_.below(static_cast<std::uint64_t>(count));
    for (ProcId p = 0; p < n; ++p) {
      if (ctl.view(p).runnable && preferred(p) && k-- == 0) return p;
    }
    return -2;
  }
  std::string name() const override { return "ref-coin-bias"; }
  int resolve_read(SimCtl&, const StaleRead& sr) override {
    return sr.options - 1;
  }

 private:
  Rng rng_;
};

class RefCrashStorm final : public Adversary {
 public:
  explicit RefCrashStorm(std::uint64_t seed) : rng_(seed) {}
  ProcId pick(SimCtl& ctl) override {
    const int n = ctl.nprocs();
    const int limit = n - 1;
    int crashed_total = 0;
    for (ProcId p = 0; p < n; ++p) {
      if (ctl.view(p).crashed) ++crashed_total;
    }
    if (crashed_total < limit && rng_.bernoulli(0.02)) {
      std::int32_t max_round = 0;
      for (ProcId p = 0; p < n; ++p) {
        if (ctl.view(p).runnable) {
          max_round = std::max(max_round, ctl.view(p).hint.round);
        }
      }
      auto score = [&](ProcId p) {
        const SimCtl::ProcView& v = ctl.view(p);
        int s = 0;
        if (v.pending.kind == OpDesc::Kind::kWrite && v.hint.walk_delta != 0) {
          s += 2;
        }
        const bool live_pref = v.hint.pref == 0 || v.hint.pref == 1;
        if (!v.hint.decided && live_pref && v.hint.round >= max_round) s += 2;
        if (v.pending.kind == OpDesc::Kind::kRead && live_pref) s += 1;
        return s;
      };
      int best = 1;
      int victims = 0;
      for (ProcId p = 0; p < n; ++p) {
        if (!ctl.view(p).runnable) continue;
        const int s = score(p);
        if (s < best) continue;
        if (s > best) victims = 0;
        best = s;
        ++victims;
      }
      if (victims > 0) {
        std::uint64_t k = rng_.below(static_cast<std::uint64_t>(victims));
        for (ProcId p = 0; p < n; ++p) {
          if (ctl.view(p).runnable && score(p) == best && k-- == 0) {
            ctl.crash(p);
            break;
          }
        }
      }
    }
    return ref_uniform_runnable(ctl, rng_);
  }
  std::string name() const override { return "ref-crash-storm"; }
  int resolve_read(SimCtl&, const StaleRead& sr) override {
    return ref_draw_read(rng_, sr);
  }

 private:
  Rng rng_;
};

class RefSplitBrain final : public Adversary {
 public:
  explicit RefSplitBrain(std::uint64_t seed) : rng_(seed) {}
  ProcId pick(SimCtl& ctl) override {
    const int n = ctl.nprocs();
    const int half = std::max(1, n / 2);
    const auto in_group = [&](ProcId p, int g) {
      return ctl.view(p).runnable && ((p < half) ? 0 : 1) == g;
    };
    auto group_count = [&](int g) {
      int count = 0;
      for (ProcId p = 0; p < n; ++p) {
        if (in_group(p, g)) ++count;
      }
      return count;
    };
    int count = group_count(group_);
    if (remaining_ == 0 || count == 0) {
      group_ = 1 - group_;
      remaining_ = kMeanBurst / 2 +
                   rng_.below(kMeanBurst +
                              std::max<std::uint64_t>(kMeanBurst / 2, 1));
      count = group_count(group_);
      if (count == 0) {
        if (remaining_ > 0) --remaining_;
        return ref_uniform_runnable(ctl, rng_);
      }
    }
    if (remaining_ > 0) --remaining_;
    std::uint64_t k = rng_.below(static_cast<std::uint64_t>(count));
    for (ProcId p = 0; p < n; ++p) {
      if (in_group(p, group_) && k-- == 0) return p;
    }
    return -2;
  }
  std::string name() const override { return "ref-split-brain"; }
  int resolve_read(SimCtl& ctl, const StaleRead& sr) override {
    const int half = std::max(1, ctl.nprocs() / 2);
    const bool cross = (sr.reader < half) != (sr.writer < half);
    return cross ? sr.options - 1 : 0;
  }

 private:
  static constexpr std::uint64_t kMeanBurst = 200;
  Rng rng_;
  int group_ = 0;
  std::uint64_t remaining_ = 0;
};

/// A hand-driven SimCtl: the test edits hints, pending operations and the
/// runnable set between picks, keeping the published state exactly as
/// SimRuntime does.
class FakeCtl final : public SimCtl {
 public:
  explicit FakeCtl(int n) : views_(static_cast<std::size_t>(n)) {
    for (ProcId p = 0; p < n; ++p) {
      views_[static_cast<std::size_t>(p)].runnable = true;
      mask_ |= std::uint64_t{1} << p;
    }
    pub_ = {n, views_.data(), &mask_, &step_};
  }

  void crash(ProcId p) override {
    SimCtl::ProcView& v = views_[static_cast<std::size_t>(p)];
    if (v.crashed || v.finished) return;
    v.crashed = true;
    stop(p);
  }
  void finish(ProcId p) {
    views_[static_cast<std::size_t>(p)].finished = true;
    stop(p);
  }
  void set_hint(ProcId p, const Hint& h) {
    views_[static_cast<std::size_t>(p)].hint = h;
  }
  void set_pending(ProcId p, const OpDesc& op) {
    views_[static_cast<std::size_t>(p)].pending = op;
  }
  void tick() { ++step_; }

 private:
  void stop(ProcId p) {
    views_[static_cast<std::size_t>(p)].runnable = false;
    mask_ &= ~(std::uint64_t{1} << p);
  }

  std::vector<SimCtl::ProcView> views_;
  std::uint64_t mask_ = 0;
  std::uint64_t step_ = 0;
};

using AdversaryFactory = std::function<std::unique_ptr<Adversary>(std::uint64_t)>;

struct OraclePair {
  const char* name;
  AdversaryFactory reference;
  AdversaryFactory strategy;
};

std::vector<OraclePair> oracle_pairs() {
  return {
      {"random", [](auto s) { return std::make_unique<RefRandom>(s); },
       [](auto s) { return std::make_unique<RandomAdversary>(s); }},
      {"round-robin", [](auto) { return std::make_unique<RefRoundRobin>(); },
       [](auto) { return std::make_unique<RoundRobinAdversary>(); }},
      {"lockstep", [](auto s) { return std::make_unique<RefLockstep>(s); },
       [](auto s) { return std::make_unique<LockstepAdversary>(s); }},
      {"leader-suppress",
       [](auto s) { return std::make_unique<RefLeaderSuppress>(s); },
       [](auto s) { return std::make_unique<LeaderSuppressAdversary>(s); }},
      {"coin-bias", [](auto s) { return std::make_unique<RefCoinBias>(s); },
       [](auto s) { return std::make_unique<CoinBiasAdversary>(s); }},
      {"crash-storm", [](auto s) { return std::make_unique<RefCrashStorm>(s); },
       [](auto s) { return std::make_unique<CrashStormAdversary>(s); }},
      {"split-brain", [](auto s) { return std::make_unique<RefSplitBrain>(s); },
       [](auto s) { return std::make_unique<SplitBrainAdversary>(s); }},
  };
}

/// Drives a reference and a strategy side by side on twin FakeCtls,
/// applying the same random edits to both between picks; every pick,
/// every stale-read answer and the resulting runnable sets must agree.
void expect_same_picks(const OraclePair& pair, int n, int crashed_low,
                       std::uint64_t seed) {
  const std::string cell = std::string(pair.name) + " n=" +
                           std::to_string(n) + " crashed_low=" +
                           std::to_string(crashed_low) + " seed=" +
                           std::to_string(seed);
  FakeCtl ref_ctl(n);
  FakeCtl new_ctl(n);
  for (ProcId p = 0; p < crashed_low; ++p) {
    ref_ctl.crash(p);
    new_ctl.crash(p);
  }
  const auto ref = pair.reference(seed);
  const auto adv = pair.strategy(seed);
  Rng edits(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(n));
  const auto random_proc = [&] {
    return static_cast<ProcId>(edits.below(static_cast<std::uint64_t>(n)));
  };
  const auto stop_allowed = [&](ProcId p) {
    const std::uint64_t mask = new_ctl.runnable_mask();
    return ((mask >> p) & 1) != 0 && (mask & (mask - 1)) != 0;
  };
  for (int pick = 0; pick < 2500; ++pick) {
    const std::uint64_t r = edits.below(100);
    if (r < 30) {
      Hint h;
      h.round = static_cast<std::int32_t>(edits.below(4));
      h.pref = static_cast<std::int8_t>(static_cast<int>(edits.below(4)) - 1);
      h.walk_delta = static_cast<std::int8_t>(static_cast<int>(edits.below(3)) - 1);
      h.counter = static_cast<std::int64_t>(edits.below(7)) - 3;
      h.decided = edits.below(8) == 0;
      const ProcId p = random_proc();
      ref_ctl.set_hint(p, h);
      new_ctl.set_hint(p, h);
    } else if (r < 60) {
      const OpDesc op{static_cast<OpDesc::Kind>(edits.below(3)), 0,
                      static_cast<std::int64_t>(edits.below(3)) - 1};
      const ProcId p = random_proc();
      ref_ctl.set_pending(p, op);
      new_ctl.set_pending(p, op);
    } else if (r < 62) {
      const ProcId p = random_proc();
      if (stop_allowed(p)) {
        ref_ctl.crash(p);
        new_ctl.crash(p);
      }
    } else if (r < 63) {
      const ProcId p = random_proc();
      if (stop_allowed(p)) {
        ref_ctl.finish(p);
        new_ctl.finish(p);
      }
    } else if (r < 68) {
      const StaleRead sr{0, random_proc(), random_proc(),
                         2 + static_cast<int>(edits.below(3))};
      ASSERT_EQ(ref->resolve_read(ref_ctl, sr), adv->resolve_read(new_ctl, sr))
          << cell << " read before pick " << pick;
    }
    const ProcId want = ref->pick(ref_ctl);
    const ProcId got = adv->pick(new_ctl);
    ASSERT_EQ(want, got) << cell << " pick " << pick;
    ASSERT_EQ(ref_ctl.runnable_mask(), new_ctl.runnable_mask())
        << cell << " pick " << pick;
    if (got < 0) return;
    ASSERT_TRUE(new_ctl.view(got).runnable) << cell << " pick " << pick;
    ref_ctl.tick();
    new_ctl.tick();
  }
}

TEST(AdversaryOracle, MaskPicksMatchTheCountThenScanReference) {
  for (const OraclePair& pair : oracle_pairs()) {
    for (const int n : {1, 2, 3, 8, 64}) {
      // Low ids crashed up front: the runnable mask starts non-contiguous.
      for (const int crashed_low : {0, 1, 2}) {
        if (crashed_low >= n) continue;
        for (const std::uint64_t seed : {1ULL, 2ULL, 77ULL}) {
          expect_same_picks(pair, n, crashed_low, seed);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(AdversaryOracle, HintChangeAloneMovesTheNextPick) {
  // Four processes at round 3; then p2 alone drops to round 1 and nothing
  // else changes. The next pick must see it: p2 is the only laggard.
  FakeCtl ctl(4);
  Hint h;
  h.round = 3;
  for (ProcId p = 0; p < 4; ++p) ctl.set_hint(p, h);
  LeaderSuppressAdversary leader(5);
  std::set<ProcId> before;
  for (int i = 0; i < 64; ++i) before.insert(leader.pick(ctl));
  EXPECT_EQ(before.size(), 4u);

  h.round = 1;
  ctl.set_hint(2, h);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(leader.pick(ctl), 2);
  h.round = 0;
  ctl.set_hint(1, h);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(leader.pick(ctl), 1);
}

TEST(AdversaryOracle, CoinBiasFollowsTheWalk) {
  // Walk +1 (p0's counter): p1's pending -1 pulls toward zero. When p0's
  // counter flips to -1, only a hint changed; p2's +1 is now preferred.
  FakeCtl ctl(3);
  Hint h;
  h.counter = 1;
  ctl.set_hint(0, h);
  h = Hint{};
  h.walk_delta = -1;
  ctl.set_hint(1, h);
  h.walk_delta = 1;
  ctl.set_hint(2, h);
  CoinBiasAdversary bias(9);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(bias.pick(ctl), 1);
  h = Hint{};
  h.counter = -1;
  ctl.set_hint(0, h);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(bias.pick(ctl), 2);
}

TEST(StandardAdversaries, ProvidesTheFullSuite) {
  const auto advs = standard_adversaries(1);
  ASSERT_EQ(advs.size(), 5u);
  std::set<std::string> names;
  for (const auto& a : advs) names.insert(a->name());
  EXPECT_TRUE(names.contains("random"));
  EXPECT_TRUE(names.contains("round-robin"));
  EXPECT_TRUE(names.contains("lockstep"));
  EXPECT_TRUE(names.contains("leader-suppress"));
  EXPECT_TRUE(names.contains("coin-bias"));
}

}  // namespace
}  // namespace bprc

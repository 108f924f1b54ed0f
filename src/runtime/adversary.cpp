#include "runtime/adversary.hpp"

#include <algorithm>
#include <bit>

#include "util/bits.hpp"

namespace bprc {

namespace {

/// Uniform draw over the set bits of `mask`; -1 (no draw) when it is empty.
/// The k-th set bit in id order is the k-th candidate, so this makes the
/// same draw and choice as indexing the candidates collected into a vector.
ProcId pick_in_mask(std::uint64_t mask, Rng& rng) {
  if (mask == 0) return -1;
  const std::uint64_t k =
      rng.below(static_cast<std::uint64_t>(popcount64(mask)));
  // Contiguous low bits (everyone runnable): the k-th set bit is bit k.
  if ((mask & (mask + 1)) == 0) return static_cast<ProcId>(k);
  return static_cast<ProcId>(nth_set_bit(mask, k));
}

}  // namespace

// resolve_read implementations. The randomized strategies draw from the
// same generator as their pick() — under atomic semantics resolve_read is
// never called, so their recorded schedules are unchanged; under weakened
// semantics the extra draws interleave deterministically and replay from
// the seed. The adaptive strategies always take the last option — the
// value most divergent from the atomic answer (the in-flight value under
// regular, the oldest held value under safe): maximal information shear,
// the canonical weak-register attack.

ProcId RandomAdversary::pick(SimCtl& ctl) {
  return pick_in_mask(ctl.runnable_mask(), rng_);
}

int RandomAdversary::resolve_read(SimCtl&, const StaleRead& sr) {
  return static_cast<int>(rng_.below(static_cast<std::uint64_t>(sr.options)));
}

ProcId RoundRobinAdversary::pick(SimCtl& ctl) {
  const ProcId p = next_set_bit_cyclic(ctl.runnable_mask(), last_);
  if (p >= 0) last_ = p;
  return p;
}

int RoundRobinAdversary::resolve_read(SimCtl&, const StaleRead& sr) {
  // Rotate through the options so every staleness level gets exercised.
  return static_cast<int>(stale_turn_++ %
                          static_cast<std::uint64_t>(sr.options));
}

ProcId LockstepAdversary::pick(SimCtl& ctl) {
  const std::uint64_t runnable = ctl.runnable_mask();
  // Drop entries that became unrunnable since the phase was formed. A
  // process never becomes runnable again, so dropping them only as they
  // reach the back leaves the same back entry as dropping them all.
  while (!phase_.empty() && (runnable & bit_of(phase_.back())) == 0) {
    phase_.pop_back();
  }
  if (phase_.empty()) {
    // Refill in id order (reusing the vector's capacity), then shuffle:
    // random order within the phase, drawn per phase.
    for (std::uint64_t rest = runnable; rest != 0; rest &= rest - 1) {
      phase_.push_back(static_cast<ProcId>(std::countr_zero(rest)));
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

int LockstepAdversary::resolve_read(SimCtl&, const StaleRead& sr) {
  return static_cast<int>(rng_.below(static_cast<std::uint64_t>(sr.options)));
}

ProcId LeaderSuppressAdversary::pick(SimCtl& ctl) {
  // Candidates: the runnable processes at the minimal published round.
  std::uint64_t laggards = 0;
  std::int32_t min_round = 0;
  for (std::uint64_t rest = ctl.runnable_mask(); rest != 0; rest &= rest - 1) {
    const ProcId p = static_cast<ProcId>(std::countr_zero(rest));
    const std::int32_t round = ctl.view(p).hint.round;
    if (laggards == 0 || round < min_round) {
      min_round = round;
      laggards = 0;
    }
    if (round == min_round) laggards |= bit_of(p);
  }
  return pick_in_mask(laggards, rng_);
}

int LeaderSuppressAdversary::resolve_read(SimCtl&, const StaleRead& sr) {
  // Serve the most divergent value available: keep readers confused about
  // where the leaders really are.
  return sr.options - 1;
}

ProcId CoinBiasAdversary::pick(SimCtl& ctl) {
  // Adversary's view of the walk: the sum of the counters the processes
  // have published (it has seen every local flip already performed).
  std::int64_t walk = 0;
  for (ProcId p = 0; p < ctl.nprocs(); ++p) walk += ctl.view(p).hint.counter;

  // Prefer a process whose pending counter write pulls the walk toward 0;
  // when the walk sits at 0, stall progress by preferring non-walk steps.
  // With no such process, any runnable one.
  const std::uint64_t runnable = ctl.runnable_mask();
  std::uint64_t preferred = 0;
  for (std::uint64_t rest = runnable; rest != 0; rest &= rest - 1) {
    const ProcId p = static_cast<ProcId>(std::countr_zero(rest));
    const int delta = ctl.view(p).hint.walk_delta;
    if (walk != 0 ? (static_cast<std::int64_t>(delta) * walk < 0)
                  : (delta == 0)) {
      preferred |= bit_of(p);
    }
  }
  return pick_in_mask(preferred != 0 ? preferred : runnable, rng_);
}

int CoinBiasAdversary::resolve_read(SimCtl&, const StaleRead& sr) {
  // Distort the observed walk for as long as the semantics allow.
  return sr.options - 1;
}

ProcId ScriptedAdversary::pick(SimCtl& ctl) {
  while (pos_ < script_.size()) {
    const ProcId p = script_[pos_++];
    if (p >= 0 && p < ctl.nprocs() && ctl.view(p).runnable) return p;
  }
  return fallback_.pick(ctl);
}

int ScriptedAdversary::resolve_read(SimCtl&, const StaleRead& sr) {
  if (stale_pos_ >= stales_.size()) return 0;  // past the script: atomic
  const int choice = stales_[stale_pos_++];
  if (choice < 0) return 0;
  if (choice >= sr.options) return sr.options - 1;
  return choice;
}

ProcId CrashPlanAdversary::pick(SimCtl& ctl) {
  while (next_ < plan_.size() && ctl.step() >= plan_[next_].at_step) {
    ctl.crash(plan_[next_].victim);
    ++next_;
  }
  return inner_->pick(ctl);
}

namespace {

/// SimCtl interposer used by RecordingAdversary: forwards everything and
/// logs effective crash() calls with the step counter at injection time.
class CrashTap final : public SimCtl {
 public:
  CrashTap(SimCtl& base, std::vector<CrashPlanAdversary::Crash>& log)
      : base_(base), log_(log) {
    // Every read goes straight to the simulator's published state; only
    // crash() passes through the tap.
    adopt_published_state(base);
  }

  void crash(ProcId p) override {
    const ProcView& view = proc(p);
    if (!view.crashed && !view.finished) log_.push_back({step(), p});
    base_.crash(p);
  }

 private:
  SimCtl& base_;
  std::vector<CrashPlanAdversary::Crash>& log_;
};

}  // namespace

ProcId RecordingAdversary::pick(SimCtl& ctl) {
  CrashTap tap(ctl, crashes_);
  const ProcId p = inner_->pick(tap);
  if (p >= 0) script_.push_back(p);
  return p;
}

int RecordingAdversary::resolve_read(SimCtl& ctl, const StaleRead& sr) {
  const int choice = inner_->resolve_read(ctl, sr);
  stales_.push_back(choice);
  return choice;
}

ProcId CrashStormAdversary::pick(SimCtl& ctl) {
  const int n = ctl.nprocs();
  const int limit = max_crashes_ < 0 ? n - 1 : std::min(max_crashes_, n - 1);
  // Count every crashed process, not just our own victims: composed with a
  // CrashPlanAdversary, the combined kill count must stay within the
  // paper's n-1 wait-freedom bound.
  int crashed_total = 0;
  for (ProcId p = 0; p < n; ++p) {
    if (ctl.view(p).crashed) ++crashed_total;
  }

  if (crashed_total < limit && rng_.bernoulli(crash_prob_)) {
    // Sensitivity score of a candidate victim, from the information the
    // strong adversary legitimately holds (Hint + pending OpDesc).
    const std::uint64_t runnable = ctl.runnable_mask();
    std::int32_t max_round = 0;
    for (std::uint64_t rest = runnable; rest != 0; rest &= rest - 1) {
      max_round = std::max(max_round, ctl.view(std::countr_zero(rest)).hint.round);
    }
    auto score = [&](ProcId p) {
      const SimCtl::ProcView& v = ctl.view(p);
      int s = 0;
      // Observed local coin flip whose counter write is still pending:
      // crashing here makes the flip vanish from the shared walk.
      if (v.pending.kind == OpDesc::Kind::kWrite && v.hint.walk_delta != 0) {
        s += 2;
      }
      // Front-running leader with a live preference: crash pre-decision.
      const bool live_pref = v.hint.pref == 0 || v.hint.pref == 1;
      if (!v.hint.decided && live_pref && v.hint.round >= max_round) s += 2;
      // Mid-scan reader carrying a preference: orphans a partial view.
      if (v.pending.kind == OpDesc::Kind::kRead && live_pref) s += 1;
      return s;
    };
    // Victims are the runnable processes at the highest score (capped
    // below at 1: only crash at genuinely sensitive points).
    int best = 1;
    std::uint64_t victims = 0;
    for (std::uint64_t rest = runnable; rest != 0; rest &= rest - 1) {
      const ProcId p = static_cast<ProcId>(std::countr_zero(rest));
      const int s = score(p);
      if (s < best) continue;
      if (s > best) victims = 0;
      best = s;
      victims |= bit_of(p);
    }
    const ProcId victim = pick_in_mask(victims, rng_);
    if (victim >= 0) ctl.crash(victim);
  }
  return pick_in_mask(ctl.runnable_mask(), rng_);
}

int CrashStormAdversary::resolve_read(SimCtl&, const StaleRead& sr) {
  return static_cast<int>(rng_.below(static_cast<std::uint64_t>(sr.options)));
}

ProcId SplitBrainAdversary::pick(SimCtl& ctl) {
  const int half = std::max(1, ctl.nprocs() / 2);  // <= 32
  const std::uint64_t runnable = ctl.runnable_mask();
  const std::uint64_t low = (std::uint64_t{1} << half) - 1;
  const auto group_mask = [&](int g) {
    return g == 0 ? runnable & low : runnable & ~low;
  };

  std::uint64_t group = group_mask(group_);
  if (remaining_ == 0 || group == 0) {
    group_ = 1 - group_;
    // Burst length in [mean/2, 2*mean): long enough that a burst spans
    // many protocol rounds of the solo group.
    remaining_ = mean_burst_ / 2 +
                 rng_.below(mean_burst_ + std::max<std::uint64_t>(mean_burst_ / 2, 1));
    group = group_mask(group_);
    if (group == 0) {
      // Other group is dead too — fall back to whoever is left.
      if (remaining_ > 0) --remaining_;
      return pick_in_mask(runnable, rng_);
    }
  }
  if (remaining_ > 0) --remaining_;
  return pick_in_mask(group, rng_);
}

int SplitBrainAdversary::resolve_read(SimCtl& ctl, const StaleRead& sr) {
  // A read across the split observes the other half with maximal
  // distortion; within a group, reads stay atomic-fresh.
  const int half = std::max(1, ctl.nprocs() / 2);
  const bool cross = (sr.reader < half) != (sr.writer < half);
  return cross ? sr.options - 1 : 0;
}

std::vector<std::unique_ptr<Adversary>> standard_adversaries(
    std::uint64_t seed) {
  std::vector<std::unique_ptr<Adversary>> out;
  out.push_back(std::make_unique<RandomAdversary>(seed));
  out.push_back(std::make_unique<RoundRobinAdversary>());
  out.push_back(std::make_unique<LockstepAdversary>(seed ^ 0x1));
  out.push_back(std::make_unique<LeaderSuppressAdversary>(seed ^ 0x2));
  out.push_back(std::make_unique<CoinBiasAdversary>(seed ^ 0x3));
  return out;
}

std::vector<std::unique_ptr<Adversary>> hostile_adversaries(
    std::uint64_t seed) {
  std::vector<std::unique_ptr<Adversary>> out;
  out.push_back(std::make_unique<CrashStormAdversary>(seed ^ 0x4));
  out.push_back(std::make_unique<SplitBrainAdversary>(seed ^ 0x5));
  return out;
}

}  // namespace bprc

#include "engine/trial.hpp"

#include <memory>
#include <utility>

#include "engine/adversaries.hpp"
#include "util/assert.hpp"

namespace bprc::engine {

namespace {

/// Non-owning forwarder: lets run_trial keep the RecordingAdversary alive
/// past run_consensus_sim (the SimRuntime destroys the adversary it owns
/// before returning the result).
class BorrowedAdversary final : public Adversary {
 public:
  explicit BorrowedAdversary(Adversary& inner) : inner_(inner) {}
  ProcId pick(SimCtl& ctl) override { return inner_.pick(ctl); }
  std::string name() const override { return inner_.name(); }
  int resolve_read(SimCtl& ctl, const StaleRead& sr) override {
    return inner_.resolve_read(ctl, sr);
  }

 private:
  Adversary& inner_;
};

}  // namespace

TrialOutcome run_trial(const TrialSpec& spec, SimReuse* reuse) {
  BPRC_REQUIRE(spec.factory != nullptr, "TrialSpec without a protocol factory");
  const std::vector<bool>* flips =
      spec.forced_flips.has_value() ? &*spec.forced_flips : nullptr;
  TrialOutcome out;

  if (spec.scripted) {
    // Replay: fixed pick sequence + fixed crash events + fixed stale-read
    // choices; nothing to record.
    auto scripted = std::make_unique<ScriptedAdversary>(spec.schedule);
    if (!spec.forced_stales.empty()) {
      scripted->set_stale_script(spec.forced_stales);
    }
    std::unique_ptr<Adversary> adv = std::move(scripted);
    if (!spec.crash_plan.empty()) {
      adv = std::make_unique<CrashPlanAdversary>(std::move(adv),
                                                 spec.crash_plan);
    }
    out.result =
        run_consensus_sim(spec.factory, spec.inputs, std::move(adv), spec.seed,
                          spec.max_steps, spec.deadline, reuse, flips,
                          spec.semantics);
    out.failure = out.result.failure();
    return out;
  }

  std::unique_ptr<Adversary> adv =
      make_adversary(spec.adversary, spec.adversary_seed.value_or(spec.seed));
  if (!spec.crash_plan.empty()) {
    adv = std::make_unique<CrashPlanAdversary>(std::move(adv), spec.crash_plan);
  }
  if (spec.record) {
    RecordingAdversary recording(std::move(adv));
    out.result = run_consensus_sim(
        spec.factory, spec.inputs,
        std::make_unique<BorrowedAdversary>(recording), spec.seed,
        spec.max_steps, spec.deadline, reuse, flips, spec.semantics);
    out.schedule = recording.take_script();
    out.crashes = recording.take_crashes();
    out.stales = recording.take_stales();
  } else {
    out.result =
        run_consensus_sim(spec.factory, spec.inputs, std::move(adv), spec.seed,
                          spec.max_steps, spec.deadline, reuse, flips,
                          spec.semantics);
  }
  out.failure = out.result.failure();
  return out;
}

}  // namespace bprc::engine

#include "probes.hpp"

#include <utility>

#include "engine/adversaries.hpp"
#include "runtime/sim_runtime.hpp"
#include "util/assert.hpp"

namespace perfbench {

using namespace bprc;

double clock_read_ns() {
  static const double cost = [] {
    constexpr int kReads = 100'000;
    const std::uint64_t t0 = now_ns();
    std::uint64_t sink = 0;
    for (int i = 0; i < kReads; ++i) sink += now_ns();
    const std::uint64_t t1 = now_ns();
    return sink == 0 ? 0.0 : static_cast<double>(t1 - t0) / kReads;
  }();
  return cost;
}

ProtocolFactory wrap_factory(ProtocolFactory factory, TrialTrace& trace) {
  return [factory = std::move(factory),
          &trace](Runtime& rt) -> std::unique_ptr<ConsensusProtocol> {
    auto* sim = dynamic_cast<SimRuntime*>(&rt);
    BPRC_REQUIRE(sim != nullptr, "the probes wrap simulated trials only");
    sim->set_trace_sink(&trace.sink);
    return std::make_unique<ProbeProtocol>(factory(rt), trace);
  };
}

engine::TrialOutcome traced_run_trial(const engine::TrialSpec& spec,
                                      SimReuse& reuse, TrialTrace& trace) {
  BPRC_REQUIRE(!spec.scripted, "traced_run_trial covers generative trials");
  engine::TrialOutcome out;
  std::unique_ptr<Adversary> adv = engine::make_adversary(
      spec.adversary, spec.adversary_seed.value_or(spec.seed));
  if (!spec.crash_plan.empty()) {
    adv = std::make_unique<CrashPlanAdversary>(std::move(adv), spec.crash_plan);
  }
  const std::vector<bool>* flips =
      spec.forced_flips.has_value() ? &*spec.forced_flips : nullptr;
  RecordingAdversary recording(std::move(adv));
  std::unique_ptr<Adversary> timed =
      std::make_unique<TimedAdversary>(recording, trace);
  out.result = run_consensus_sim(
      wrap_factory(spec.factory, trace), spec.inputs, std::move(timed),
      spec.seed, spec.max_steps, spec.deadline, &reuse, flips, spec.semantics);
  if (spec.record) {
    out.schedule = recording.script();
    out.crashes = recording.crashes();
    out.stales = recording.stales();
  }
  out.failure = out.result.failure();
  return out;
}

TracedConsensusTarget::TracedConsensusTarget(ProtocolFactory factory,
                                             std::vector<int> inputs,
                                             ExploreTrace& trace)
    : factory_(std::move(factory)), inputs_(std::move(inputs)), trace_(trace) {}

namespace {

void latch_max(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

class TracedInstance final : public explore::ExploreTarget::Instance {
 public:
  TracedInstance(const ProtocolFactory& factory, const std::vector<int>& inputs,
                 ExploreTrace& trace, SimRuntime& rt)
      : inputs_(inputs),
        trace_(trace),
        start_ns_(now_ns()) {
    const int n = static_cast<int>(inputs.size());
    // The explorer's enumeration installs its own sink (it fingerprints
    // states through it); leaf grading replays run without one.
    if (rt.trace_sink() == nullptr) {
      sink_ = std::make_unique<CountingSink>(n);
      rt.set_trace_sink(sink_.get());
    }
    protocol_ = factory(rt);
    for (ProcId p = 0; p < n; ++p) {
      const int input = inputs[static_cast<std::size_t>(p)];
      ConsensusProtocol* proto = protocol_.get();
      rt.spawn(p, [proto, input] { proto->propose(input); });
    }
  }

  // Mirrors the grading of explore/consensus_explore.cpp's adapter.
  std::optional<explore::Violation> check(SimRuntime& rt, RunResult run,
                                          bool complete) override {
    const std::uint64_t t0 = now_ns();
    const int n = static_cast<int>(inputs_.size());
    std::vector<bool> crashed(static_cast<std::size_t>(n), false);
    for (ProcId p = 0; p < n; ++p) {
      crashed[static_cast<std::size_t>(p)] = rt.crashed(p);
    }
    const ConsensusRunResult result =
        evaluate_consensus(*protocol_, inputs_, rt, run, crashed);
    FailureClass failure = result.failure();
    if (!complete && failure == FailureClass::kTermination) {
      failure = FailureClass::kNone;  // truncated: inconclusive, not wrong
    }
    const std::uint64_t t1 = now_ns();
    record_leaf(result, t0, t1);
    if (failure == FailureClass::kNone) return std::nullopt;
    explore::Violation v;
    v.failure = failure;
    v.note = std::string("reason=") + to_string(result.reason);
    return v;
  }

 private:
  void record_leaf(const ConsensusRunResult& result, std::uint64_t t0,
                   std::uint64_t t1) {
    ExploreTrace& t = trace_;
    t.leaves.fetch_add(1, std::memory_order_relaxed);
    t.oracle_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    t.leaf_steps.fetch_add(result.total_steps, std::memory_order_relaxed);
    t.leaf_max_proc_steps.fetch_add(result.max_proc_steps,
                                    std::memory_order_relaxed);
    if (const auto* b = dynamic_cast<const BPRCConsensus*>(protocol_.get())) {
      t.scans.fetch_add(b->total_scans(), std::memory_order_relaxed);
      t.flips.fetch_add(b->total_flips(), std::memory_order_relaxed);
      latch_max(t.max_round, b->max_round_reached());
    }
    if (sink_ != nullptr) {
      t.counted_leaves.fetch_add(1, std::memory_order_relaxed);
      t.value_reads.fetch_add(sink_->value_reads, std::memory_order_relaxed);
      t.value_ops.fetch_add(sink_->value_reads + sink_->value_writes,
                            std::memory_order_relaxed);
      t.arrow_ops.fetch_add(sink_->arrow_reads + sink_->arrow_writes,
                            std::memory_order_relaxed);
      const std::scoped_lock lock(t.mu);
      t.leaf_spans_ns.push_back(t1 - start_ns_);
    }
  }

  const std::vector<int>& inputs_;
  ExploreTrace& trace_;
  std::uint64_t start_ns_;
  // Declared before protocol_: the registers report to the sink until the
  // protocol is destroyed.
  std::unique_ptr<CountingSink> sink_;
  std::unique_ptr<ConsensusProtocol> protocol_;
};

}  // namespace

std::unique_ptr<explore::ExploreTarget::Instance>
TracedConsensusTarget::instantiate(SimRuntime& rt) {
  return std::make_unique<TracedInstance>(factory_, inputs_, trace_, rt);
}

}  // namespace perfbench

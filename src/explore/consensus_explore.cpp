#include "explore/consensus_explore.hpp"

#include <memory>
#include <utility>

#include "fault/protocols.hpp"
#include "runtime/sim_runtime.hpp"
#include "util/assert.hpp"

namespace bprc::explore {

namespace {

/// ExploreTarget adapter over a registry protocol factory. Each
/// instantiate() builds a fresh protocol bound to the (re-armed) runtime
/// and spawns one proposer body per process — identical setup to
/// run_consensus_sim, so a violating schedule replays there verbatim.
class ConsensusTarget final : public ExploreTarget {
 public:
  ConsensusTarget(ProtocolFactory factory, std::vector<int> inputs)
      : factory_(std::move(factory)), inputs_(std::move(inputs)) {}

  int nprocs() const override { return static_cast<int>(inputs_.size()); }

  std::unique_ptr<Instance> instantiate(SimRuntime& rt) override {
    return std::make_unique<ConsensusInstance>(factory_(rt), inputs_, rt);
  }

 private:
  class ConsensusInstance final : public Instance {
   public:
    ConsensusInstance(std::unique_ptr<ConsensusProtocol> protocol,
                      const std::vector<int>& inputs, SimRuntime& rt)
        : protocol_(std::move(protocol)), inputs_(inputs) {
      const int n = static_cast<int>(inputs.size());
      for (ProcId p = 0; p < n; ++p) {
        const int input = inputs[static_cast<std::size_t>(p)];
        ConsensusProtocol* proto = protocol_.get();
        rt.spawn(p, [proto, input] { proto->propose(input); });
      }
    }

    std::optional<Violation> check(SimRuntime& rt, RunResult run,
                                   bool complete) override {
      const int n = static_cast<int>(inputs_.size());
      std::vector<bool> crashed(static_cast<std::size_t>(n), false);
      for (ProcId p = 0; p < n; ++p) {
        crashed[static_cast<std::size_t>(p)] = rt.crashed(p);
      }
      const ConsensusRunResult result =
          evaluate_consensus(*protocol_, inputs_, rt, run, crashed);
      FailureClass failure = result.failure();
      if (!complete && failure == FailureClass::kTermination) {
        // A truncated run proves nothing about termination — randomized
        // consensus only terminates with probability 1, and the
        // deterministic tail may simply need more budget. Safety
        // violations (the other classes) stand regardless.
        failure = FailureClass::kNone;
      }
      if (failure == FailureClass::kNone) return std::nullopt;
      Violation v;
      v.failure = failure;
      std::string note = "reason=";
      note += to_string(result.reason);
      note += " decisions=";
      for (std::size_t i = 0; i < result.decisions.size(); ++i) {
        if (i > 0) note += ',';
        note += std::to_string(result.decisions[i]);
      }
      if (failure == FailureClass::kBoundedMemory) {
        note += " max_counter=" +
                std::to_string(result.footprint.max_counter) + " bound=" +
                std::to_string(result.footprint.static_bound);
      }
      v.note = std::move(note);
      return v;
    }

   private:
    std::unique_ptr<ConsensusProtocol> protocol_;
    const std::vector<int>& inputs_;
  };

  ProtocolFactory factory_;
  std::vector<int> inputs_;
};

}  // namespace

std::uint64_t consensus_target_fingerprint(
    const ConsensusExploreConfig& config) {
  std::uint64_t h = fnv_mix_string(kFnvOffset, config.protocol);
  h = fnv_mix(h, config.inputs.size());
  for (const int input : config.inputs) {
    h = fnv_mix(h, static_cast<std::uint64_t>(input) + 1);
  }
  // Non-default budgets change what the target IS; fold them (and only
  // them, so historical frontier fingerprints keep their values).
  if (!config.space.is_default()) {
    h = fnv_mix(h, static_cast<std::uint64_t>(config.space.K));
    h = fnv_mix(h, static_cast<std::uint64_t>(config.space.cycle_mult));
    h = fnv_mix(h, static_cast<std::uint64_t>(config.space.slots));
    h = fnv_mix(h, static_cast<std::uint64_t>(config.space.b));
    h = fnv_mix(h, static_cast<std::uint64_t>(config.space.m_scale));
  }
  return h;
}

ConsensusExploreReport explore_consensus(const ConsensusExploreConfig& config,
                                         const FrontierOptions* frontier) {
  BPRC_REQUIRE(!config.inputs.empty(), "explore_consensus needs inputs");
  const int n = static_cast<int>(config.inputs.size());
  ConsensusTarget target(
      fault::make_protocol(config.protocol, n, config.seed, config.space),
      config.inputs);
  std::optional<FrontierOptions> options;
  if (frontier != nullptr) {
    options = *frontier;
    options->target_fingerprint = consensus_target_fingerprint(config);
  }
  ExploreResult result =
      explore(target, config.limits, config.seed,
              options.has_value() ? &*options : nullptr);
  ConsensusExploreReport report;
  report.config = config;
  report.stats = result.stats;
  report.violations = std::move(result.violations);
  return report;
}

std::vector<ConsensusExploreReport> explore_consensus_all_inputs(
    const std::string& protocol, int n, std::uint64_t seed,
    const ExploreLimits& limits, const SpaceBudget& space) {
  BPRC_REQUIRE(n > 0 && n < 16, "input sweep is exponential in n");
  std::vector<ConsensusExploreReport> reports;
  for (unsigned bits = 0; bits < (1u << n); ++bits) {
    ConsensusExploreConfig config;
    config.protocol = protocol;
    config.seed = seed;
    config.space = space;
    config.limits = limits;
    config.inputs.resize(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      config.inputs[static_cast<std::size_t>(p)] =
          (bits >> static_cast<unsigned>(p)) & 1u;
    }
    reports.push_back(explore_consensus(config));
  }
  return reports;
}

fault::Repro make_explore_repro(const ConsensusExploreConfig& config,
                                const ExploreViolation& violation) {
  fault::Repro repro;
  repro.run.protocol = config.protocol;
  repro.run.inputs = config.inputs;
  repro.run.adversary = "explore";  // provenance; replay is fully scripted
  repro.run.seed = config.seed;
  repro.run.max_steps = config.limits.max_run_steps;
  repro.run.semantics = config.limits.semantics;
  repro.run.space = config.space;
  repro.failure = violation.failure;
  repro.schedule = violation.schedule;
  repro.flips = violation.flips;
  repro.stales = violation.stales;
  repro.note = violation.note;
  return repro;
}

}  // namespace bprc::explore

#include "fault/protocols.hpp"

#include <memory>

#include "consensus/abrahamson.hpp"
#include "consensus/aspnes_herlihy.hpp"
#include "consensus/bprc.hpp"
#include "consensus/strong_coin.hpp"
#include "fault/broken.hpp"
#include "util/assert.hpp"

namespace bprc::fault {

const std::vector<ProtocolSpec>& protocol_registry() {
  // The four faithful protocols all carry live_under_stale_reads=false:
  // their expected-termination proofs assume atomic registers, and the
  // weak-register campaign showed the assumption is load-bearing (see the
  // trait's comment in protocols.hpp). BPRC additionally carries
  // tolerates_safe_reads=false — safe-register junk trips its always-on
  // edge-counter decode invariant, which aborts rather than grades.
  static const std::vector<ProtocolSpec> registry = {
      {.name = "bprc",
       .live_under_stale_reads = false,
       .tolerates_safe_reads = false,
       .space_sensitive = true,
       .make = [](int n, std::uint64_t,
                  const SpaceBudget& space) -> ProtocolFactory {
         return [n, space](Runtime& rt) {
           return std::make_unique<BPRCConsensus>(
               rt, BPRCParams::from_budget(n, space));
         };
       }},
      // space_sensitive via the barrier b only: AH's counters are
      // unbounded, so K/cycle/slots/mscale have nothing to act on.
      {.name = "aspnes-herlihy",
       .live_under_stale_reads = false,
       .space_sensitive = true,
       .make = [](int n, std::uint64_t,
                  const SpaceBudget& space) -> ProtocolFactory {
         return [n, space](Runtime& rt) {
           return std::make_unique<AspnesHerlihyConsensus>(
               rt, CoinParams::standard(n, space.b));
         };
       }},
      // crash_tolerant=false: this simplified A88 baseline omits the
      // paper's timestamp machinery and livelocks when crashed processes
      // freeze conflicting preferences (torture-campaign finding).
      {.name = "local-coin",
       .crash_tolerant = false,
       .live_under_stale_reads = false,
       .make = [](int, std::uint64_t, const SpaceBudget&) -> ProtocolFactory {
         return [](Runtime& rt) {
           return std::make_unique<LocalCoinConsensus>(rt);
         };
       }},
      {.name = "strong-coin",
       .live_under_stale_reads = false,
       .make = [](int, std::uint64_t seed,
                  const SpaceBudget&) -> ProtocolFactory {
         return [seed](Runtime& rt) {
           return std::make_unique<StrongCoinConsensus>(rt, seed ^ 0xC01);
         };
       }},
      {.name = "broken-racy",
       .broken = true,
       .make = [](int, std::uint64_t, const SpaceBudget&) -> ProtocolFactory {
         return [](Runtime& rt) { return std::make_unique<RacyConsensus>(rt); };
       }},
      // Bounded-memory violator: agreement-safe under unanimous inputs,
      // blows its declared counter bound only under (partially)
      // serialized schedules — the explorer's acceptance target for
      // catching schedule-dependent footprint bugs exhaustively.
      {.name = "broken-unbounded",
       .broken = true,
       .make = [](int, std::uint64_t, const SpaceBudget&) -> ProtocolFactory {
         return [](Runtime& rt) {
           return std::make_unique<UnboundedHandoffConsensus>(rt);
         };
       }},
      // The space lane's self-certification pair (docs/SPACE_BUDGETS.md):
      // the real protocol run at a deliberately short budget. Honest
      // logic, honest schedules — only the declared allowance is wrong,
      // so campaigns and the explorer must surface kBoundedMemory via
      // the demand latch, on exactly the schedules where the deficit is
      // actually exercised (a lockstep run never is). Traits mirror
      // `bprc`: the underlying protocol is unchanged.
      {.name = "bprc-underprov-cycle",
       .broken = true,
       .live_under_stale_reads = false,
       .tolerates_safe_reads = false,
       .space_sensitive = true,
       .make = [](int n, std::uint64_t,
                  const SpaceBudget& space) -> ProtocolFactory {
         SpaceBudget s = space;
         s.cycle_mult = 2;  // 2K-cell cycle: |s| = K aliases with −K
         return [n, s](Runtime& rt) {
           return std::make_unique<BPRCConsensus>(
               rt, BPRCParams::from_budget(n, s));
         };
       }},
      {.name = "bprc-underprov-slots",
       .broken = true,
       .live_under_stale_reads = false,
       .tolerates_safe_reads = false,
       .space_sensitive = true,
       .make = [](int n, std::uint64_t,
                  const SpaceBudget& space) -> ProtocolFactory {
         SpaceBudget s = space;
         s.slots = s.K;  // one short: no slack round for racing readers
         return [n, s](Runtime& rt) {
           return std::make_unique<BPRCConsensus>(
               rt, BPRCParams::from_budget(n, s));
         };
       }},
      // Correct over atomic registers, broken over regular/safe ones: the
      // weak-register tier's acceptance target (docs/REGISTER_SEMANTICS.md).
      // crash_tolerant=false: readers spin on process 0's announce flag.
      {.name = "broken-needs-atomic",
       .broken = true,
       .crash_tolerant = false,
       .make = [](int, std::uint64_t, const SpaceBudget&) -> ProtocolFactory {
         return [](Runtime& rt) {
           return std::make_unique<NeedsAtomicConsensus>(rt);
         };
       }},
      // Host-killer (crashes_process=true): lethal for half the seeds,
      // where the first scheduled process segfaults the OS process
      // executing the trial. The shard coordinator must quarantine those
      // indices as kWorkerCrash and finish the campaign; everything
      // single-process dies, by design. crash_tolerant=false: the benign
      // path spins on all n slots, so starvation shows as budget aborts.
      {.name = "broken-segv",
       .broken = true,
       .crash_tolerant = false,
       .crashes_process = true,
       .make = [](int, std::uint64_t seed,
                  const SpaceBudget&) -> ProtocolFactory {
         const bool lethal = (seed % 2) == 0;
         return [lethal](Runtime& rt) {
           return std::make_unique<WorkerKillerConsensus>(rt, lethal);
         };
       }},
  };
  return registry;
}

std::vector<std::string> protocol_names(bool include_broken) {
  std::vector<std::string> out;
  for (const ProtocolSpec& spec : protocol_registry()) {
    if (spec.broken && !include_broken) continue;
    if (spec.crashes_process) continue;  // explicit lookup only
    out.push_back(spec.name);
  }
  return out;
}

const ProtocolSpec& protocol_spec(const std::string& name) {
  for (const ProtocolSpec& spec : protocol_registry()) {
    if (spec.name == name) return spec;
  }
  BPRC_REQUIRE(false, "unknown protocol name");
  __builtin_unreachable();
}

ProtocolFactory make_protocol(const std::string& name, int n,
                              std::uint64_t seed) {
  return make_protocol(name, n, seed, SpaceBudget{});
}

ProtocolFactory make_protocol(const std::string& name, int n,
                              std::uint64_t seed, const SpaceBudget& space) {
  return protocol_spec(name).make(n, seed, space);
}

}  // namespace bprc::fault

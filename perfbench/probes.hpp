// Outside-in tracing seams of the benchmark.
//
// Nothing here is compiled into the library: every probe sits at a seam
// the program already exposes, and times or counts the calls that cross
// it from the benchmark's own code.
//
//   * wrap_factory()  — a ProtocolFactory decorator. It receives the
//     Runtime before any register exists, so it installs a CountingSink
//     (registers cache the sink at construction) and returns a
//     ProbeProtocol that forwards to the real protocol and harvests its
//     counters when run_consensus_sim destroys it.
//   * TimedAdversary  — a scheduling decorator that counts picks and
//     process handoffs and times a hashed sample of about 1 pick in 32.
//   * traced_run_trial() — the generative path of engine::run_trial with
//     the two decorators above spliced in (run_trial builds its adversary
//     from a name, so that is the only way to reach the seam).
//   * TracedConsensusTarget — an ExploreTarget equivalent to the one
//     explore_consensus builds, timing the oracle and each graded leaf.
//
// The self-tests pin that every probe leaves the digests bit-identical.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "consensus/bprc.hpp"
#include "consensus/driver.hpp"
#include "engine/trial.hpp"
#include "explore/explorer.hpp"
#include "runtime/adversary.hpp"
#include "runtime/runtime.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Register operations by object class. ScannableMemory constructs its n
/// value registers first and its arrow registers after them, so the
/// creation index alone tells the classes apart.
class CountingSink final : public bprc::TraceSink {
 public:
  explicit CountingSink(int value_objects) : value_objects_(value_objects) {}

  int on_object_created() override { return next_id_++; }
  void on_read(bprc::ProcId, int object) override {
    (object < value_objects_ ? value_reads : arrow_reads)++;
  }
  void on_write(bprc::ProcId, int object) override {
    (object < value_objects_ ? value_writes : arrow_writes)++;
  }
  void on_event(bprc::ProcId, int, std::uint64_t, bool) override {}

  std::uint64_t value_reads = 0;
  std::uint64_t value_writes = 0;
  std::uint64_t arrow_reads = 0;
  std::uint64_t arrow_writes = 0;

 private:
  int value_objects_;
  int next_id_ = 0;
};

/// Everything the probes learn about one trial. Owned by the caller of
/// traced_run_trial; the decorators hold a reference to it.
struct TrialTrace {
  explicit TrialTrace(int n) : sink(n) {}

  CountingSink sink;
  // Adversary decorator.
  std::uint64_t picks = 0;     ///< picks that scheduled a process
  std::uint64_t handoffs = 0;  ///< consecutive picks of different processes
  std::uint64_t timed_picks = 0;
  std::uint64_t timed_pick_ns = 0;
  // ProbeProtocol, harvested when run_consensus_sim drops the protocol.
  std::uint64_t scans = 0;
  std::uint64_t flips = 0;
  std::int64_t max_round = 0;
  std::uint64_t oracle_start_ns = 0;  ///< first footprint() call
  std::uint64_t oracle_end_ns = 0;    ///< protocol destroyed
};

/// Cost of one now_ns() call, measured once. A timed interval [t0, t1]
/// includes about one such call on top of the work it brackets.
double clock_read_ns();

/// Times about one pick in 32: two clock reads per step would cost as
/// much as the step itself. The choice is hashed from the call count, so
/// it cannot lock onto a strategy's period (lockstep phases are n picks).
inline bool sample_pick(std::uint64_t call) {
  return ((call * 0x9E3779B97F4A7C15ULL) >> 59) == 0;
}

/// Forwarding adversary decorator; does not own the decorated strategy
/// (run_trial's RecordingAdversary must outlive the simulator).
class TimedAdversary final : public bprc::Adversary {
 public:
  TimedAdversary(bprc::Adversary& inner, TrialTrace& trace)
      : inner_(inner), trace_(trace) {}

  bprc::ProcId pick(bprc::SimCtl& ctl) override {
    const bool timed = sample_pick(calls_++);
    const std::uint64_t t0 = timed ? now_ns() : 0;
    const bprc::ProcId p = inner_.pick(ctl);
    if (timed) {
      trace_.timed_pick_ns += now_ns() - t0;
      ++trace_.timed_picks;
    }
    if (p < 0) return p;  // run ends; the recording keeps no entry either
    ++trace_.picks;
    if (last_ != -1 && p != last_) ++trace_.handoffs;
    last_ = p;
    return p;
  }
  std::string name() const override { return inner_.name(); }
  int resolve_read(bprc::SimCtl& ctl, const bprc::StaleRead& sr) override {
    return inner_.resolve_read(ctl, sr);
  }

 private:
  bprc::Adversary& inner_;
  TrialTrace& trace_;
  std::uint64_t calls_ = 0;
  bprc::ProcId last_ = -1;
};

/// Forwards every call to the wrapped protocol. evaluate_consensus asks
/// for the footprint first, and run_consensus_sim destroys the protocol
/// right after grading, so [first footprint(), destructor] spans the
/// oracle.
class ProbeProtocol final : public bprc::ConsensusProtocol {
 public:
  ProbeProtocol(std::unique_ptr<bprc::ConsensusProtocol> inner,
                TrialTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}
  ~ProbeProtocol() override {
    if (const auto* b = dynamic_cast<const bprc::BPRCConsensus*>(inner_.get())) {
      trace_.scans += b->total_scans();
      trace_.flips += b->total_flips();
      trace_.max_round = std::max(trace_.max_round, b->max_round_reached());
    }
    trace_.oracle_end_ns = now_ns();
  }
  ProbeProtocol(const ProbeProtocol&) = delete;
  ProbeProtocol& operator=(const ProbeProtocol&) = delete;

  int propose(int input) override { return inner_->propose(input); }
  std::string name() const override { return inner_->name(); }
  int decision(bprc::ProcId p) const override { return inner_->decision(p); }
  std::int64_t decision_round(bprc::ProcId p) const override {
    return inner_->decision_round(p);
  }
  bprc::MemoryFootprint footprint() const override {
    if (trace_.oracle_start_ns == 0) trace_.oracle_start_ns = now_ns();
    return inner_->footprint();
  }

 private:
  std::unique_ptr<bprc::ConsensusProtocol> inner_;
  TrialTrace& trace_;
};

/// Decorates `factory`: installs trace.sink on the simulator before the
/// protocol's registers exist and wraps the protocol in a ProbeProtocol.
bprc::ProtocolFactory wrap_factory(bprc::ProtocolFactory factory,
                                   TrialTrace& trace);

/// engine::run_trial (generative mode) with wrap_factory and
/// TimedAdversary spliced in. Requires a non-scripted spec.
bprc::engine::TrialOutcome traced_run_trial(const bprc::engine::TrialSpec& spec,
                                            bprc::SimReuse& reuse,
                                            TrialTrace& trace);

/// What the explorer-side probe learns. Leaves are graded on the engine's
/// worker threads, so every field is atomic.
struct ExploreTrace {
  std::atomic<std::uint64_t> leaves{0};  ///< graded executions
  std::atomic<std::uint64_t> oracle_ns{0};
  std::atomic<std::uint64_t> leaf_steps{0};
  std::atomic<std::uint64_t> leaf_max_proc_steps{0};
  std::atomic<std::uint64_t> scans{0};
  std::atomic<std::uint64_t> flips{0};
  std::atomic<std::int64_t> max_round{0};
  /// Register counts, from leaves graded off the enumeration thread.
  std::atomic<std::uint64_t> counted_leaves{0};
  std::atomic<std::uint64_t> value_reads{0};
  std::atomic<std::uint64_t> value_ops{0};
  std::atomic<std::uint64_t> arrow_ops{0};
  std::mutex mu;
  std::vector<std::uint64_t> leaf_spans_ns;  ///< guarded by mu
};

/// ExploreTarget over a protocol factory, equivalent to the adapter
/// explore_consensus builds, that reports into an ExploreTrace the oracle
/// span, the leaf span and the counts of every graded leaf.
class TracedConsensusTarget final : public bprc::explore::ExploreTarget {
 public:
  TracedConsensusTarget(bprc::ProtocolFactory factory, std::vector<int> inputs,
                        ExploreTrace& trace);
  int nprocs() const override { return static_cast<int>(inputs_.size()); }
  std::unique_ptr<Instance> instantiate(bprc::SimRuntime& rt) override;

 private:
  bprc::ProtocolFactory factory_;
  std::vector<int> inputs_;
  ExploreTrace& trace_;
};

}  // namespace perfbench

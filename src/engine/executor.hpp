// TrialExecutor: the one trial loop every sweep in the repo runs on.
//
// A sweep is a deterministic *generator* of specs plus a single-threaded
// *sink* of outcomes. The executor pulls specs from the generator in
// order, shards them over a pool of worker threads — one SimReuse pinned
// per worker, so the simulator's recycled fiber stacks and process
// tables never cross a thread — and delivers outcomes to the sink
// **strictly in generation order**, one call at a time. Consequences:
//
//   * determinism: the sink observes the identical (index, spec, outcome)
//     sequence at any --jobs level, so campaign logs, failure lists,
//     table rows, and .bprc-repro artifacts are byte-identical whether a
//     sweep ran on 1 worker or 64 (tests/test_engine.cpp pins this);
//   * early stop: a sink returning false stops the sweep after a
//     deterministic prefix — workers may have speculatively executed
//     later specs, but those outcomes are discarded undelivered;
//   * bounded memory: at most `window` specs are in flight, so a
//     million-trial campaign never materializes a million outcomes.
//
// The default window is 64 × jobs specs. Run lengths are heavy-tailed:
// in one n=8 bprc campaign cell (`bprc_torture --protocol bprc --n 8
// --seeds 16 --seed 7`) the median run takes 10.4k steps, the p99 235k
// and the longest 432k. A long run at the front of the window blocks
// delivery, so the other workers can only run the specs behind it. At
// 4 × jobs (16 specs at jobs=4) they filled those slots and slept: the
// traced campaign-n8 benchmark read an engine busy share of 0.83-0.84,
// and `--jobs 4` kept 1.9 of 4 cores busy. At 64 × jobs the share is
// 0.97 (4-vCPU VM, perfbench --trace 1, two 20 s runs per side).
// A wide window is only cheap if what waits in it is small, so sweeps
// reduce each outcome on the worker before it reaches the window: the
// campaign's execute stage turns a trial into its 8-byte-digest
// OutcomeRecord there (fault::execute_runs), and a passing run's
// recorded schedule never waits for delivery.
//
// jobs <= 1 runs the exact serial path of the pre-engine harnesses: no
// threads are spawned, the generator/executor/sink alternate on the
// calling thread with one calling-thread SimReuse. Replay tooling must
// use this mode (docs/TESTING.md): parallelism never changes results,
// but it reorders *wall-clock* interleaving, which the watchdog reads.
//
// The generator and the sink always run under the executor lock (i.e.
// single-threaded, mutually excluded); keep them to bookkeeping and do
// the real work in the execute stage.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "engine/trial.hpp"

namespace bprc::engine {

/// Worker-thread count for jobs=0 ("use the machine").
inline unsigned default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Default in-flight specs per worker (see the header comment).
inline constexpr std::size_t kWindowPerJob = 64;

struct ExecutorConfig {
  unsigned jobs = 0;       ///< worker threads; 0 = default_jobs(), 1 = serial
  std::size_t window = 0;  ///< max specs in flight; 0 = kWindowPerJob * jobs
};

class TrialExecutor {
 public:
  explicit TrialExecutor(ExecutorConfig config = {}) : config_(config) {
    if (config_.jobs == 0) config_.jobs = default_jobs();
    if (config_.window == 0) config_.window = kWindowPerJob * config_.jobs;
    if (config_.window < config_.jobs) config_.window = config_.jobs;
  }

  unsigned jobs() const { return config_.jobs; }
  /// Max specs in flight: how far generation may run ahead of delivery,
  /// and so how many undelivered specs an early stop can leave behind.
  std::size_t window() const { return config_.window; }

  /// Generic ordered sweep: `next` yields specs (nullopt = end of
  /// stream), `execute` runs one spec on a worker (its thread-pinned
  /// SimReuse supplied), `sink` consumes outcomes in generation order
  /// (return false to stop). Spec/Outcome are arbitrary movable types —
  /// the consensus pipeline below is one instantiation, the coin-toss
  /// bench another.
  template <typename Spec, typename Outcome>
  void run_ordered(
      const std::function<std::optional<Spec>()>& next,
      const std::function<Outcome(const Spec&, SimReuse&)>& execute,
      const std::function<bool(std::size_t, const Spec&, Outcome&&)>& sink)
      const {
    if (config_.jobs <= 1) {
      // The exact serial path: generate, execute, deliver, repeat.
      SimReuse reuse;
      for (std::size_t index = 0;; ++index) {
        std::optional<Spec> spec = next();
        if (!spec.has_value()) return;
        Outcome out = execute(*spec, reuse);
        if (!sink(index, *spec, std::move(out))) return;
      }
    }
    run_parallel<Spec, Outcome>(next, execute, sink);
  }

  /// The consensus-trial instantiation: run_trial over TrialSpecs.
  void run_trials(
      const std::function<std::optional<TrialSpec>()>& next,
      const std::function<bool(std::size_t, const TrialSpec&, TrialOutcome&&)>&
          sink) const {
    run_ordered<TrialSpec, TrialOutcome>(
        next,
        [](const TrialSpec& spec, SimReuse& reuse) {
          return run_trial(spec, &reuse);
        },
        sink);
  }

 private:
  template <typename Spec, typename Outcome>
  struct Slot {
    Spec spec;
    std::optional<Outcome> outcome;
  };

  template <typename Spec, typename Outcome>
  void run_parallel(
      const std::function<std::optional<Spec>()>& next,
      const std::function<Outcome(const Spec&, SimReuse&)>& execute,
      const std::function<bool(std::size_t, const Spec&, Outcome&&)>& sink)
      const {
    using S = Slot<Spec, Outcome>;
    std::mutex m;
    std::condition_variable cv;
    // In-flight window. std::deque keeps element references stable across
    // push_back/pop_front, so a worker can hold its claimed slot across
    // the unlocked execute stage.
    std::deque<S> window;
    std::size_t window_base = 0;  ///< generation index of window.front()
    /// Generation index of the next spec to claim. Claims go in
    /// generation order and a slot leaves the window only after it was
    /// claimed and completed, so window_base <= next_claim and every slot
    /// before next_claim is taken.
    std::size_t next_claim = 0;
    bool exhausted = false;  ///< generator returned nullopt
    bool stop = false;       ///< sink requested stop

    auto worker = [&] {
      SimReuse reuse;  // pinned to this worker thread for its lifetime
      std::unique_lock<std::mutex> lk(m);
      for (;;) {
        if (stop) return;

        // Claim the oldest unexecuted spec, if any.
        if (next_claim < window_base + window.size()) {
          S& claimed = window[next_claim - window_base];
          ++next_claim;
          lk.unlock();
          Outcome out = execute(claimed.spec, reuse);
          lk.lock();
          if (stop) return;
          claimed.outcome.emplace(std::move(out));
          // Deliver the completed prefix in order. Only the thread that
          // just completed a slot drains, and it drains under the lock,
          // so the sink is never entered concurrently.
          while (!stop && !window.empty() &&
                 window.front().outcome.has_value()) {
            S& front = window.front();
            const bool more =
                sink(window_base, front.spec, std::move(*front.outcome));
            window.pop_front();
            ++window_base;
            if (!more) stop = true;
          }
          cv.notify_all();
          continue;
        }

        // No executable slot: refill the window from the generator.
        if (!exhausted && window.size() < config_.window) {
          std::optional<Spec> spec = next();
          if (!spec.has_value()) {
            exhausted = true;
          } else {
            window.push_back(S{std::move(*spec), std::nullopt});
          }
          cv.notify_all();
          continue;
        }

        if (exhausted && window.empty()) return;  // fully drained
        cv.wait(lk);
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(config_.jobs);
    for (unsigned i = 0; i < config_.jobs; ++i) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  ExecutorConfig config_;
};

}  // namespace bprc::engine

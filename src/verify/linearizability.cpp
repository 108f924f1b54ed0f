#include "verify/linearizability.hpp"

#include <cstddef>
#include <mutex>
#include <unordered_set>
#include <utility>

#include "util/assert.hpp"
#include "util/fnv.hpp"

namespace bprc {

namespace {

std::mutex g_recorder_mutex;

struct Search {
  /// A memoized dead state: the exact set of already-linearized ops (as a
  /// word-packed bitset) plus the register value — no lossy mixing, so a
  /// memo hit can never be a collision between distinct states.
  struct State {
    std::vector<std::uint64_t> mask;
    std::uint64_t value = 0;
    friend bool operator==(const State& a, const State& b) {
      return a.value == b.value && a.mask == b.mask;
    }
  };
  struct StateHash {
    std::size_t operator()(const State& s) const {
      std::uint64_t h = kFnvOffset;
      for (const std::uint64_t w : s.mask) h = fnv_mix(h, w);
      return static_cast<std::size_t>(fnv_mix(h, s.value));
    }
  };

  const std::vector<RegOp>& ops;
  std::unordered_set<State, StateHash> failed;  ///< memo of dead states
  std::vector<std::uint64_t> mask;              ///< current done-set
  std::size_t done_count = 0;

  explicit Search(const std::vector<RegOp>& history)
      : ops(history), mask((history.size() + 63) / 64, 0) {}

  bool done(std::size_t i) const {
    return (mask[i >> 6] >> (i & 63)) & std::uint64_t{1};
  }
  void set(std::size_t i) { mask[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void clear(std::size_t i) { mask[i >> 6] &= ~(std::uint64_t{1} << (i & 63)); }

  bool dfs(std::uint64_t value) {
    const std::size_t n = ops.size();
    if (done_count == n) return true;
    State state{mask, value};
    if (failed.contains(state)) return false;

    // Frontier: op i may linearize next iff no other pending op responded
    // before i was invoked.
    std::uint64_t min_res = ~std::uint64_t{0};
    for (std::size_t i = 0; i < n; ++i) {
      if (!done(i)) min_res = std::min(min_res, ops[i].res);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (done(i)) continue;
      const RegOp& op = ops[i];
      if (op.inv > min_res) continue;  // some pending op responded first
      if (!op.is_write && op.value != value) continue;  // read must match
      const std::uint64_t next_value = op.is_write ? op.value : value;
      set(i);
      ++done_count;
      if (dfs(next_value)) return true;
      clear(i);
      --done_count;
    }
    failed.insert(std::move(state));
    return false;
  }
};

}  // namespace

LinResult check_register_linearizable(const std::vector<RegOp>& history,
                                      std::uint64_t initial_value) {
  for (const RegOp& op : history) {
    BPRC_REQUIRE(op.inv < op.res, "operation interval must be non-empty");
  }
  Search search(history);
  if (search.dfs(initial_value)) return {true, {}};

  std::string witness = "no linearization exists; history:";
  for (const RegOp& op : history) {
    witness += "\n  p" + std::to_string(op.proc) +
               (op.is_write ? " write(" : " read->") +
               std::to_string(op.value) + (op.is_write ? ")" : "") + " [" +
               std::to_string(op.inv) + "," + std::to_string(op.res) + "]";
  }
  return {false, witness};
}

void RegOpRecorder::append(const RegOp& op) {
  const std::scoped_lock lock(g_recorder_mutex);
  ops_.push_back(op);
}

}  // namespace bprc

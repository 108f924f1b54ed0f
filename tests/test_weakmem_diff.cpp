// Differential test of the weak-memory SC checker against a reference
// copy of its earlier pipeline.
//
// The reference decides SC with a clock-vector fixpoint: an edge a→b
// whose source's clock vector already covers b closes a happens-before
// cycle, reported with a BFS path b ⇝ a. It then sorts with the same
// smallest-id-first Kahn sort and re-validates coherence by feeding each
// location's slice of the order, op k spanning [2k, 2k+1], through the
// Wing–Gong linearizability checker. check_sc must agree with it on every
// SCResult field for seeded random recordings, consistent and corrupted
// alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <queue>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "verify/linearizability.hpp"
#include "verify/weakmem/recorder.hpp"
#include "verify/weakmem/sc_checker.hpp"

namespace bprc::weakmem {
namespace {

// ---- the reference pipeline ---------------------------------------------

/// The flattened view of a recording: global ids are thread-major, so
/// id = base[thread] + seq, which makes (thread, seq) → id arithmetic.
struct Flat {
  std::vector<const MemAction*> actions;  ///< by global id
  std::vector<std::size_t> base;          ///< first global id per thread
};

Flat flatten(const Recording& rec) {
  Flat flat;
  flat.base.resize(rec.logs.size());
  std::size_t next = 0;
  for (std::size_t t = 0; t < rec.logs.size(); ++t) {
    flat.base[t] = next;
    next += rec.logs[t].size();
  }
  flat.actions.reserve(next);
  for (const auto& log : rec.logs) {
    for (const MemAction& a : log) flat.actions.push_back(&a);
  }
  return flat;
}

/// Per-location index: writers keyed by modification-order version.
struct LocationIndex {
  /// global id of the write with version v, at writers[v-1]; the vector
  /// is dense because versions are validated contiguous 1..W.
  std::vector<std::size_t> writers;
};

std::string fail(const Recording& rec, const MemAction& a,
                 const char* reason) {
  return describe_action(rec, a) + ": " + reason;
}

/// Validates the version bookkeeping the edge construction relies on.
/// Returns the per-location writer index; on failure sets `witness`.
bool build_location_index(const Recording& rec, const Flat& flat,
                          std::vector<LocationIndex>& index,
                          std::string& witness) {
  index.assign(rec.locations.size(), {});
  // Count writes per location so version ranges can be validated.
  std::vector<std::size_t> writes(rec.locations.size(), 0);
  for (const MemAction* a : flat.actions) {
    if (a->location < 0 ||
        static_cast<std::size_t>(a->location) >= rec.locations.size()) {
      witness = fail(rec, *a, "location id out of range");
      return false;
    }
    if (a->kind != MemAction::Kind::kLoad) {
      ++writes[static_cast<std::size_t>(a->location)];
    }
  }
  for (std::size_t l = 0; l < index.size(); ++l) {
    index[l].writers.assign(writes[l], SIZE_MAX);
  }
  for (std::size_t id = 0; id < flat.actions.size(); ++id) {
    const MemAction& a = *flat.actions[id];
    const auto l = static_cast<std::size_t>(a.location);
    if (a.kind != MemAction::Kind::kLoad) {
      if (a.mo == 0) {
        witness = fail(rec, a, "store was never flushed (mo version 0)");
        return false;
      }
      if (a.mo > index[l].writers.size()) {
        witness = fail(rec, a, "mo version exceeds the location's write count");
        return false;
      }
      if (index[l].writers[a.mo - 1] != SIZE_MAX) {
        witness = fail(rec, a, "duplicate mo version on one location");
        return false;
      }
      index[l].writers[a.mo - 1] = id;
    }
    if (a.kind != MemAction::Kind::kStore) {
      if (a.rf > writes[l]) {
        witness = fail(rec, a, "rf version exceeds the location's write count");
        return false;
      }
    }
    if (a.kind == MemAction::Kind::kRmw && a.rf + 1 != a.mo) {
      witness = fail(rec, a, "RMW not atomic: rf version + 1 != mo version");
      return false;
    }
  }
  // Reads must return the value their rf write put there (or the initial
  // payload for rf = 0) — a recorder-integrity check, independent of the
  // order analysis below.
  for (const MemAction* a : flat.actions) {
    if (a->kind == MemAction::Kind::kStore) continue;
    const auto l = static_cast<std::size_t>(a->location);
    const std::uint64_t expect =
        a->rf == 0 ? rec.locations[l].initial
                   : flat.actions[index[l].writers[a->rf - 1]]->value;
    if (a->kind == MemAction::Kind::kLoad && a->value != expect) {
      witness = fail(rec, *a, "read value disagrees with its rf write");
      return false;
    }
  }
  return true;
}

struct Graph {
  std::vector<std::vector<std::size_t>> out;
  std::vector<std::size_t> indegree;

  explicit Graph(std::size_t n) : out(n), indegree(n, 0) {}

  void edge(std::size_t a, std::size_t b) {
    out[a].push_back(b);
    ++indegree[b];
  }
};

Graph build_edges(const Recording& rec, const Flat& flat,
                  const std::vector<LocationIndex>& index) {
  Graph g(flat.actions.size());
  // po: consecutive actions of one thread.
  for (std::size_t t = 0; t < rec.logs.size(); ++t) {
    for (std::size_t i = 1; i < rec.logs[t].size(); ++i) {
      g.edge(flat.base[t] + i - 1, flat.base[t] + i);
    }
  }
  for (std::size_t id = 0; id < flat.actions.size(); ++id) {
    const MemAction& a = *flat.actions[id];
    const auto& writers = index[static_cast<std::size_t>(a.location)].writers;
    if (a.kind != MemAction::Kind::kStore) {
      // rf: the write this read observed precedes it.
      if (a.rf >= 1) g.edge(writers[a.rf - 1], id);
      // fr: this read precedes the write that overwrote what it saw. For
      // an RMW that overwriter is the RMW itself — no edge.
      if (a.rf < writers.size() && writers[a.rf] != id) {
        g.edge(id, writers[a.rf]);
      }
    }
    if (a.kind != MemAction::Kind::kLoad && a.mo >= 2) {
      // mo: version v-1 precedes version v.
      g.edge(writers[a.mo - 2], id);
    }
  }
  return g;
}

/// Clock-vector fixpoint: cv[id][t] = count of thread-t actions that
/// happen before or equal action `id` under po ∪ rf ∪ mo ∪ fr.
std::vector<std::vector<std::uint32_t>> clock_vectors(const Flat& flat,
                                                      const Graph& g,
                                                      std::size_t nthreads) {
  std::vector<std::vector<std::uint32_t>> cv(
      flat.actions.size(), std::vector<std::uint32_t>(nthreads, 0));
  std::deque<std::size_t> work;
  std::vector<bool> queued(flat.actions.size(), false);
  for (std::size_t id = 0; id < flat.actions.size(); ++id) {
    const MemAction& a = *flat.actions[id];
    cv[id][static_cast<std::size_t>(a.thread)] = a.seq + 1;
    work.push_back(id);
    queued[id] = true;
  }
  while (!work.empty()) {
    const std::size_t id = work.front();
    work.pop_front();
    queued[id] = false;
    for (const std::size_t succ : g.out[id]) {
      bool grew = false;
      for (std::size_t t = 0; t < nthreads; ++t) {
        if (cv[id][t] > cv[succ][t]) {
          cv[succ][t] = cv[id][t];
          grew = true;
        }
      }
      if (grew && !queued[succ]) {
        work.push_back(succ);
        queued[succ] = true;
      }
    }
  }
  return cv;
}

/// Finds a path b ⇝ a (BFS over the edge graph) for the cycle witness.
std::vector<std::size_t> find_path(const Graph& g, std::size_t from,
                                   std::size_t to) {
  std::vector<std::size_t> parent(g.out.size(), SIZE_MAX);
  std::deque<std::size_t> work{from};
  std::vector<bool> seen(g.out.size(), false);
  seen[from] = true;
  while (!work.empty()) {
    const std::size_t id = work.front();
    work.pop_front();
    if (id == to) break;
    for (const std::size_t succ : g.out[id]) {
      if (!seen[succ]) {
        seen[succ] = true;
        parent[succ] = id;
        work.push_back(succ);
      }
    }
  }
  std::vector<std::size_t> path;
  for (std::size_t id = to; id != SIZE_MAX; id = parent[id]) {
    path.push_back(id);
    if (id == from) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

SCResult reference_check_sc(const Recording& rec) {
  SCResult result;
  const Flat flat = flatten(rec);
  if (flat.actions.empty()) {
    result.well_formed = result.sc = result.coherent = true;
    return result;
  }

  // Log integrity: entry (t, i) must claim thread t and seq i — loaded
  // artifacts are untrusted input.
  for (std::size_t t = 0; t < rec.logs.size(); ++t) {
    for (std::size_t i = 0; i < rec.logs[t].size(); ++i) {
      const MemAction& a = rec.logs[t][i];
      if (static_cast<std::size_t>(a.thread) != t ||
          static_cast<std::size_t>(a.seq) != i) {
        result.witness = fail(rec, a, "log entry thread/seq inconsistent");
        return result;
      }
    }
  }

  std::vector<LocationIndex> index;
  if (!build_location_index(rec, flat, index, result.witness)) {
    return result;
  }
  result.well_formed = true;

  const Graph g = build_edges(rec, flat, index);
  const auto cv = clock_vectors(flat, g, rec.logs.size());

  // An edge a→b whose source's clock vector already covers b means b ⇝ a:
  // together with a→b that is a happens-before cycle, i.e. no SC total
  // order can explain this execution.
  for (std::size_t a = 0; a < flat.actions.size(); ++a) {
    for (const std::size_t b : g.out[a]) {
      if (a == b) continue;
      const MemAction& bact = *flat.actions[b];
      if (cv[a][static_cast<std::size_t>(bact.thread)] >= bact.seq + 1) {
        std::ostringstream witness;
        witness << "non-SC execution: happens-before cycle\n";
        const std::vector<std::size_t> path = find_path(g, b, a);
        for (const std::size_t id : path) {
          witness << "  " << describe_action(rec, *flat.actions[id]) << "\n";
        }
        witness << "  " << describe_action(rec, *flat.actions[b])
                << "  <- cycle closes here";
        result.witness = witness.str();
        return result;
      }
    }
  }
  result.sc = true;

  // Deterministic topological sort (Kahn, smallest global id first).
  {
    std::priority_queue<std::size_t, std::vector<std::size_t>,
                        std::greater<>> ready;
    std::vector<std::size_t> indegree = g.indegree;
    for (std::size_t id = 0; id < flat.actions.size(); ++id) {
      if (indegree[id] == 0) ready.push(id);
    }
    result.order.reserve(flat.actions.size());
    while (!ready.empty()) {
      const std::size_t id = ready.top();
      ready.pop();
      result.order.push_back(id);
      for (const std::size_t succ : g.out[id]) {
        if (--indegree[succ] == 0) ready.push(succ);
      }
    }
    // The cycle scan above proved acyclicity; the sort must be total.
    if (result.order.size() != flat.actions.size()) {
      result.sc = false;
      result.witness = "internal: topological sort incomplete";
      return result;
    }
  }

  // Feed the SC order through the Wing–Gong checker, one sequential
  // RegOp history per location: every read must return the latest write.
  std::vector<std::vector<RegOp>> histories(rec.locations.size());
  for (std::size_t pos = 0; pos < result.order.size(); ++pos) {
    const MemAction& a = *flat.actions[result.order[pos]];
    RegOp op;
    op.is_write = a.kind != MemAction::Kind::kLoad;
    op.value = a.value;
    op.inv = 2 * pos;
    op.res = 2 * pos + 1;
    op.proc = a.thread;
    histories[static_cast<std::size_t>(a.location)].push_back(op);
  }
  for (std::size_t l = 0; l < histories.size(); ++l) {
    const LinResult lin =
        check_register_linearizable(histories[l], rec.locations[l].initial);
    if (!lin.ok) {
      result.witness = "SC order not coherent on location " +
                       rec.locations[l].name + ": " + lin.witness;
      return result;
    }
  }
  result.coherent = true;
  return result;
}


// ---- seeded random recordings --------------------------------------------

enum class Defect { kNone, kStaleRead, kNonAtomicRmw, kUnflushedStore };

/// One SC execution, generated by interleaving random loads, stores and
/// RMWs of 2–4 threads over 1–4 locations, then corrupted by `defect`.
Recording random_recording(std::uint64_t seed, Defect defect) {
  std::mt19937_64 rng(seed);
  auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  constexpr std::memory_order kOrders[] = {
      std::memory_order_relaxed, std::memory_order_acquire,
      std::memory_order_release, std::memory_order_seq_cst};

  const auto threads = static_cast<int>(2 + pick(3));
  const auto locations = static_cast<int>(1 + pick(4));
  WeakMemRecorder recorder(threads);
  // payload[l][v] = the value version v of location l holds.
  std::vector<std::vector<std::uint64_t>> payload(
      static_cast<std::size_t>(locations));
  for (int l = 0; l < locations; ++l) {
    const std::uint64_t initial = pick(3);
    recorder.on_location(("l" + std::to_string(l)).c_str(), initial);
    payload[static_cast<std::size_t>(l)].push_back(initial);
  }
  const std::uint64_t steps = static_cast<std::uint64_t>(threads) * (1 + pick(16));
  for (std::uint64_t s = 0; s < steps; ++s) {
    MemAction a;
    a.thread = static_cast<ProcId>(pick(static_cast<std::uint64_t>(threads)));
    a.location = static_cast<int>(pick(static_cast<std::uint64_t>(locations)));
    a.order = static_cast<std::uint8_t>(kOrders[pick(4)]);
    auto& versions = payload[static_cast<std::size_t>(a.location)];
    const std::uint64_t latest = versions.size() - 1;
    switch (pick(3)) {
      case 0:
        a.kind = MemAction::Kind::kLoad;
        a.rf = latest;
        a.value = versions[latest];
        break;
      case 1:
        a.kind = MemAction::Kind::kStore;
        a.value = pick(4);
        a.mo = latest + 1;
        versions.push_back(a.value);
        break;
      default:
        a.kind = MemAction::Kind::kRmw;
        a.rf = latest;
        a.value = pick(4);
        a.mo = latest + 1;
        versions.push_back(a.value);
        break;
    }
    recorder.on_action(a);
  }

  Recording rec = recorder.recording();
  std::vector<MemAction*> candidates;
  for (auto& log : rec.logs) {
    for (MemAction& a : log) {
      const bool fits =
          (defect == Defect::kStaleRead && a.kind == MemAction::Kind::kLoad &&
           a.rf > 0) ||
          (defect == Defect::kNonAtomicRmw &&
           a.kind == MemAction::Kind::kRmw) ||
          (defect == Defect::kUnflushedStore &&
           a.kind != MemAction::Kind::kLoad);
      if (fits) candidates.push_back(&a);
    }
  }
  const std::uint64_t injections = defect == Defect::kStaleRead ? 1 + pick(3) : 1;
  for (std::uint64_t k = 0; k < injections && !candidates.empty(); ++k) {
    MemAction& a = *candidates[pick(candidates.size())];
    switch (defect) {
      case Defect::kStaleRead:  // an older version, with its true payload
        a.rf = pick(a.rf + 1);
        a.value = payload[static_cast<std::size_t>(a.location)][a.rf];
        break;
      case Defect::kNonAtomicRmw:  // any version but the one it replaced
        a.rf = pick(a.mo + 1);
        if (a.rf + 1 == a.mo) a.rf = a.mo;
        break;
      case Defect::kUnflushedStore:
        a.mo = 0;
        break;
      case Defect::kNone:
        break;
    }
  }
  return rec;
}

TEST(WeakMemDifferential, AgreesWithReferenceOnRandomRecordings) {
  constexpr std::uint64_t kRecordings = 600;
  std::uint64_t ok = 0, non_sc = 0, malformed = 0;
  for (std::uint64_t seed = 0; seed < kRecordings; ++seed) {
    // Six in ten recordings stay consistent; the rest carry one defect.
    const Defect defect = seed % 10 < 6   ? Defect::kNone
                          : seed % 10 < 8 ? Defect::kStaleRead
                          : seed % 10 < 9 ? Defect::kNonAtomicRmw
                                          : Defect::kUnflushedStore;
    const Recording rec = random_recording(seed, defect);
    const SCResult want = reference_check_sc(rec);
    const SCResult got = check_sc(rec);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(got.well_formed, want.well_formed);
    EXPECT_EQ(got.sc, want.sc);
    EXPECT_EQ(got.coherent, want.coherent);
    EXPECT_EQ(got.witness, want.witness);
    EXPECT_EQ(got.order, want.order);
    if (defect == Defect::kNone) {
      EXPECT_TRUE(want.ok()) << want.witness;
    }
    ok += want.ok() ? 1 : 0;
    non_sc += want.well_formed && !want.sc ? 1 : 0;
    malformed += want.well_formed ? 0 : 1;
  }
  // Every verdict class is exercised, consistent recordings most of all.
  EXPECT_GT(ok, kRecordings / 2);
  EXPECT_GT(non_sc, 50u);
  EXPECT_GT(malformed, 50u);
}

}  // namespace
}  // namespace bprc::weakmem

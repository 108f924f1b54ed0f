#include "verify/weakmem/sc_checker.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <numeric>
#include <queue>
#include <span>
#include <sstream>
#include <utility>

namespace bprc::weakmem {

namespace {

const char* order_name(std::uint8_t order) {
  switch (static_cast<std::memory_order>(order)) {
    case std::memory_order_relaxed: return "relaxed";
    case std::memory_order_consume: return "consume";
    case std::memory_order_acquire: return "acquire";
    case std::memory_order_release: return "release";
    case std::memory_order_acq_rel: return "acq_rel";
    case std::memory_order_seq_cst: return "seq_cst";
  }
  return "?";
}

/// Every action by global id. Ids are thread-major, so each thread's
/// actions hold consecutive ids, in program order.
using Flat = std::vector<const MemAction*>;

Flat flatten(const Recording& rec) {
  Flat flat;
  flat.reserve(rec.total_actions());
  for (const auto& log : rec.logs) {
    for (const MemAction& a : log) flat.push_back(&a);
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
  for (const MemAction* a : flat) {
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
  for (std::size_t id = 0; id < flat.size(); ++id) {
    const MemAction& a = *flat[id];
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
  for (const MemAction* a : flat) {
    if (a->kind == MemAction::Kind::kStore) continue;
    const auto l = static_cast<std::size_t>(a->location);
    const std::uint64_t expect =
        a->rf == 0 ? rec.locations[l].initial
                   : flat[index[l].writers[a->rf - 1]]->value;
    if (a->kind == MemAction::Kind::kLoad && a->value != expect) {
      witness = fail(rec, *a, "read value disagrees with its rf write");
      return false;
    }
  }
  return true;
}

/// po ∪ rf ∪ mo ∪ fr as compressed rows: the out-edges of a are
/// dst[start[a] .. start[a+1]), in the order build_edges adds them.
struct Graph {
  std::vector<std::size_t> start, dst;

  std::span<const std::size_t> out(std::size_t a) const {
    return {dst.data() + start[a], dst.data() + start[a + 1]};
  }
  std::size_t size() const { return start.size() - 2; }
};

Graph build_edges(const Flat& flat, const std::vector<LocationIndex>& index) {
  const std::size_t n = flat.size();
  Graph g{std::vector<std::size_t>(n + 2, 0), {}};
  // Two passes over the same edges: the first counts row a's edges into
  // start[a+2]; after the prefix sum the second fills row a from
  // start[a+1], which leaves start[a+1] at the start of row a+1.
  for (const bool fill : {false, true}) {
    if (fill) {
      std::partial_sum(g.start.begin(), g.start.end(), g.start.begin());
      g.dst.resize(g.start.back());
    }
    const auto edge = [&](std::size_t a, std::size_t b) {
      if (fill) g.dst[g.start[a + 1]++] = b;
      else ++g.start[a + 2];
    };
    // po: consecutive actions of one thread.
    for (std::size_t id = 1; id < n; ++id) {
      if (flat[id]->seq > 0) edge(id - 1, id);
    }
    for (std::size_t id = 0; id < n; ++id) {
      const MemAction& a = *flat[id];
      const auto& writers = index[static_cast<std::size_t>(a.location)].writers;
      if (a.kind != MemAction::Kind::kStore) {
        // rf: the write this read observed precedes it.
        if (a.rf >= 1) edge(writers[a.rf - 1], id);
        // fr: this read precedes the write that overwrote what it saw. For
        // an RMW that overwriter is the RMW itself — no edge.
        if (a.rf < writers.size() && writers[a.rf] != id) {
          edge(id, writers[a.rf]);
        }
      }
      if (a.kind != MemAction::Kind::kLoad && a.mo >= 2) {
        // mo: version v-1 precedes version v.
        edge(writers[a.mo - 2], id);
      }
    }
  }
  return g;
}

/// Strongly connected components by an iterative Tarjan walk (a history
/// can be deeper than the call stack): comp[id] is its component's root.
std::vector<std::size_t> components(const Graph& g) {
  const std::size_t n = g.size();
  std::vector<std::size_t> comp(n, SIZE_MAX), num(n, SIZE_MAX), low(n);
  std::vector<std::size_t> stack;
  std::vector<std::pair<std::size_t, std::size_t>> dfs;  // (node, next edge)
  std::size_t counter = 0;
  for (std::size_t root = 0; root < n; ++root) {
    if (num[root] != SIZE_MAX) continue;
    dfs.emplace_back(root, 0);
    while (!dfs.empty()) {
      const auto [v, next] = dfs.back();
      if (next == 0) {
        num[v] = low[v] = counter++;
        stack.push_back(v);
      }
      if (next < g.out(v).size()) {
        ++dfs.back().second;
        const std::size_t w = g.out(v)[next];
        if (num[w] == SIZE_MAX) {
          dfs.emplace_back(w, 0);
        } else if (comp[w] == SIZE_MAX) {  // w is still on the stack
          low[v] = std::min(low[v], num[w]);
        }
        continue;
      }
      dfs.pop_back();
      if (!dfs.empty()) {
        low[dfs.back().first] = std::min(low[dfs.back().first], low[v]);
      }
      if (low[v] != num[v]) continue;
      for (std::size_t w = SIZE_MAX; w != v; stack.pop_back()) {
        comp[w = stack.back()] = v;
      }
    }
  }
  return comp;
}

/// Finds a path b ⇝ a (BFS over the edge graph) for the cycle witness.
std::vector<std::size_t> find_path(const Graph& g, std::size_t from,
                                   std::size_t to) {
  std::vector<std::size_t> parent(g.size(), SIZE_MAX);
  std::deque<std::size_t> work{from};
  std::vector<bool> seen(g.size(), false);
  seen[from] = true;
  while (!work.empty()) {
    const std::size_t id = work.front();
    work.pop_front();
    if (id == to) break;
    for (const std::size_t succ : g.out(id)) {
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

}  // namespace

std::string describe_action(const Recording& rec, const MemAction& a) {
  std::ostringstream out;
  out << "T" << a.thread << "#" << a.seq << " ";
  switch (a.kind) {
    case MemAction::Kind::kLoad:  out << "R "; break;
    case MemAction::Kind::kStore: out << "W "; break;
    case MemAction::Kind::kRmw:   out << "RMW "; break;
  }
  if (a.location >= 0 &&
      static_cast<std::size_t>(a.location) < rec.locations.size()) {
    out << rec.locations[static_cast<std::size_t>(a.location)].name;
  } else {
    out << "loc" << a.location;
  }
  out << "=" << a.value;
  if (a.kind == MemAction::Kind::kLoad) {
    out << " rf@v" << a.rf;
  } else if (a.kind == MemAction::Kind::kStore) {
    out << " @v" << a.mo;
  } else {
    out << " rf@v" << a.rf << "->v" << a.mo;
  }
  out << " (" << order_name(a.order) << ")";
  return out.str();
}

SCResult check_sc(const Recording& rec) {
  SCResult result;
  const Flat flat = flatten(rec);

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
  if (!build_location_index(rec, flat, index, result.witness)) return result;
  result.well_formed = true;

  const Graph g = build_edges(flat, index);

  // Deterministic topological sort (Kahn, smallest global id first). It is
  // total exactly when po ∪ rf ∪ mo ∪ fr is acyclic.
  std::priority_queue<std::size_t, std::vector<std::size_t>, std::greater<>>
      ready;
  std::vector<std::size_t> indegree(flat.size(), 0);
  for (const std::size_t b : g.dst) ++indegree[b];
  for (std::size_t id = 0; id < flat.size(); ++id) {
    if (indegree[id] == 0) ready.push(id);
  }
  result.order.reserve(flat.size());
  while (!ready.empty()) {
    const std::size_t id = ready.top();
    ready.pop();
    result.order.push_back(id);
    for (const std::size_t succ : g.out(id)) {
      if (--indegree[succ] == 0) ready.push(succ);
    }
  }

  if (result.order.size() != flat.size()) {
    // A happens-before cycle: no SC total order explains this execution.
    // Witness: the first edge a→b (a in id order) inside one strongly
    // connected component, closed by a path b ⇝ a.
    result.order.clear();
    const std::vector<std::size_t> comp = components(g);
    for (std::size_t a = 0; a < flat.size(); ++a) {
      for (const std::size_t b : g.out(a)) {
        if (a == b || comp[a] != comp[b]) continue;
        std::ostringstream witness;
        witness << "non-SC execution: happens-before cycle\n";
        for (const std::size_t id : find_path(g, b, a)) {
          witness << "  " << describe_action(rec, *flat[id]) << "\n";
        }
        witness << "  " << describe_action(rec, *flat[b])
                << "  <- cycle closes here";
        result.witness = witness.str();
        return result;
      }
    }
    result.witness = "internal: topological sort incomplete";  // self-loop
    return result;
  }
  result.sc = true;

  // Coherence: replay the SC order, one current value per location; every
  // load must return its location's latest write. With the op at position
  // k spanning [2k, 2k+1], the order is each location's only linearization,
  // so this is exactly the Wing–Gong check of it, witness text included.
  std::vector<std::uint64_t> current;
  for (const auto& loc : rec.locations) current.push_back(loc.initial);
  std::size_t stale = SIZE_MAX;  // smallest location with a stale load
  for (const std::size_t id : result.order) {
    const MemAction& a = *flat[id];
    const auto l = static_cast<std::size_t>(a.location);
    if (a.kind != MemAction::Kind::kLoad) {
      current[l] = a.value;
    } else if (a.value != current[l]) {
      stale = std::min(stale, l);
    }
  }
  if (stale != SIZE_MAX) {
    std::ostringstream witness;
    witness << "SC order not coherent on location " << rec.locations[stale].name
            << ": no linearization exists; history:";
    for (std::size_t pos = 0; pos < result.order.size(); ++pos) {
      const MemAction& a = *flat[result.order[pos]];
      if (static_cast<std::size_t>(a.location) != stale) continue;
      const bool write = a.kind != MemAction::Kind::kLoad;
      witness << "\n  p" << a.thread << (write ? " write(" : " read->")
              << a.value << (write ? ")" : "") << " [" << 2 * pos << ","
              << 2 * pos + 1 << "]";
    }
    result.witness = witness.str();
    return result;
  }
  result.coherent = true;
  return result;
}

}  // namespace bprc::weakmem

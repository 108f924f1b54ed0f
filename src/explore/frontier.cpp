#include "explore/frontier.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "consensus/driver.hpp"
#include "runtime/adversary.hpp"
#include "util/line_record.hpp"

namespace bprc::explore {

namespace {

void append_hex(std::string* out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  *out += buf;
}

void append_u64(std::string* out, std::uint64_t v) {
  *out += std::to_string(v);
}

/// The decimal stats, in file order. `stale-branches` is written only
/// when nonzero, to keep atomic-mode frontier bytes historical.
constexpr std::pair<const char*, std::uint64_t ExploreStats::*> kStats[] = {
    {"executions", &ExploreStats::executions},
    {"complete-runs", &ExploreStats::complete_runs},
    {"truncated-runs", &ExploreStats::truncated_runs},
    {"pruned-runs", &ExploreStats::pruned_runs},
    {"states-visited", &ExploreStats::states_visited},
    {"states-merged", &ExploreStats::states_merged},
    {"sleep-pruned", &ExploreStats::sleep_pruned},
    {"sleep-blocked", &ExploreStats::sleep_blocked},
    {"coin-branches", &ExploreStats::coin_branches},
    {"stale-branches", &ExploreStats::stale_branches},
    {"max-trail-depth", &ExploreStats::max_trail_depth},
    {"total-steps", &ExploreStats::total_steps},
    {"worker-crashes", &ExploreStats::worker_crashes},
    {"cache-evictions", &ExploreStats::cache_evictions},
    {"peak-cache-bytes", &ExploreStats::peak_cache_bytes},
};

bool read_stat(LineReader& r, ExploreStats* s) {
  std::string_view name;
  if (!r.take(&name)) return r.malformed();
  if (name == "digest") return r.fields(LineReader::Hex{&s->schedule_digest});
  if (name == "seconds") return r.fields(&s->seconds);
  for (const auto& [stat, field] : kStats) {
    if (name == stat) return r.fields(&(s->*field));
  }
  return true;  // unknown stat names: skipped (forward compatibility)
}

bool read_node(LineReader& r, FrontierNode* node) {
  std::string_view kind;
  if (!r.take(&kind)) return r.malformed();
  if (kind == "c") {
    node->is_coin = true;
    return r.fields(&node->coin_value, &node->taken);
  }
  if (kind == "t") {
    node->is_stale = true;
    return r.fields(&node->stale_value, &node->stale_options, &node->taken) &&
           ((node->stale_value >= 0 && node->stale_options >= 2 &&
             node->stale_value < node->stale_options) ||
            r.malformed("stale value outside its options"));
  }
  if (kind != "s") return r.malformed("unknown node kind");
  std::size_t nops = 0;
  if (!r.take(&node->chosen) || !r.take(&node->taken) ||
      !r.take(LineReader::Hex{&node->candidates}) ||
      !r.take(LineReader::Hex{&node->sleep}) || !r.take(&nops) ||
      nops > kRunnableMaskBits) {
    return r.malformed();
  }
  node->ops.resize(nops);
  for (OpDesc& op : node->ops) {
    int op_kind = 0;
    if (!r.take(&op_kind) || !r.take(&op.object) || !r.take(&op.payload) ||
        op_kind < 0 || op_kind > 2) {
      return r.malformed("bad op");
    }
    op.kind = static_cast<OpDesc::Kind>(op_kind);
  }
  return r.fields();
}

/// Parse state of one frontier: the lines each declared section still owes.
struct FrontierReader {
  Frontier frontier;
  std::size_t trail_left = 0;
  std::size_t violations_left = 0;
  std::size_t cache_left = 0;

  bool read_line(LineReader& r);
  bool read_violation_line(LineReader& r);
};

bool FrontierReader::read_line(LineReader& r) {
  const std::string_view key = r.key();
  Frontier& f = frontier;
  if (key == "fingerprint") {
    return r.once() && r.fields(LineReader::Hex{&f.fingerprint});
  }
  if (key == "complete") return r.once() && r.fields(&f.complete);
  if (key == "stat") return read_stat(r, &f.stats);
  if (key == "trail") return r.once() && r.count(&trail_left);
  if (key == "node") {
    if (trail_left == 0) return r.fail("node line outside a declared trail");
    --trail_left;
    return read_node(r, &f.trail.emplace_back());
  }
  if (key == "violations") return r.once() && r.count(&violations_left);
  if (key.starts_with('v')) return read_violation_line(r);
  if (key == "cache") {
    if (!r.once() || !r.count(&cache_left)) return false;
    f.cache.reserve(cache_left);
    return true;
  }
  if (key == "seen") {
    if (cache_left == 0) return r.fail("seen line outside a declared cache");
    --cache_left;
    auto& [cache_key, depth] = f.cache.emplace_back();
    return r.fields(LineReader::Hex{&cache_key}, &depth);
  }
  return true;  // unknown keys: skipped (forward compatibility)
}

bool FrontierReader::read_violation_line(LineReader& r) {
  const std::string_view key = r.key();
  std::vector<ExploreViolation>& all = frontier.violations;
  if (key == "violation") {
    if (violations_left == 0) {
      return r.fail("violation line outside a declared list");
    }
    --violations_left;
    std::string_view name;
    return r.fields(&name) &&
           (failure_class_from_string(name, &all.emplace_back().failure) ||
            r.malformed("unknown failure class"));
  }
  if (key != "vschedule" && key != "vflips" && key != "vstales" &&
      key != "vnote") {
    return true;  // unknown keys: skipped (forward compatibility)
  }
  if (all.empty()) return r.fail(std::string(key) + " without a violation");
  ExploreViolation& v = all.back();
  if (key == "vschedule") {
    return r.list(&v.schedule) &&
           (std::ranges::all_of(v.schedule,
                                [](ProcId p) {
                                  return p >= 0 && p < kRunnableMaskBits;
                                }) ||
            r.malformed("pick out of range"));
  }
  if (key == "vflips") return r.list(&v.flips);
  if (key == "vstales") {
    return r.list(&v.stales) &&
           (std::ranges::all_of(v.stales, [](int c) { return c >= 0; }) ||
            r.malformed("choice out of range"));
  }
  v.note = r.rest();
  return true;
}

}  // namespace

std::string serialize_frontier(const Frontier& frontier) {
  std::string out;
  out += "bprc-frontier v1\n";
  out += "fingerprint ";
  append_hex(&out, frontier.fingerprint);
  out += '\n';
  out += "complete ";
  out += frontier.complete ? '1' : '0';
  out += '\n';

  const ExploreStats& s = frontier.stats;
  for (const auto& [name, field] : kStats) {
    if (field == &ExploreStats::stale_branches && s.stale_branches == 0) {
      continue;
    }
    out += "stat ";
    out += name;
    out += ' ';
    append_u64(&out, s.*field);
    out += '\n';
  }
  out += "stat digest ";
  append_hex(&out, s.schedule_digest);
  out += '\n';
  {
    char buf[40];
    std::snprintf(buf, sizeof buf, "stat seconds %.9g\n", s.seconds);
    out += buf;
  }

  out += "trail ";
  append_u64(&out, frontier.trail.size());
  out += '\n';
  for (const FrontierNode& node : frontier.trail) {
    if (node.is_coin) {
      out += "node c ";
      out += node.coin_value ? '1' : '0';
      out += ' ';
      out += std::to_string(node.taken);
      out += '\n';
      continue;
    }
    if (node.is_stale) {
      out += "node t ";
      out += std::to_string(node.stale_value);
      out += ' ';
      out += std::to_string(node.stale_options);
      out += ' ';
      out += std::to_string(node.taken);
      out += '\n';
      continue;
    }
    out += "node s ";
    out += std::to_string(node.chosen);
    out += ' ';
    out += std::to_string(node.taken);
    out += ' ';
    append_hex(&out, node.candidates);
    out += ' ';
    append_hex(&out, node.sleep);
    out += ' ';
    out += std::to_string(node.ops.size());
    for (const OpDesc& op : node.ops) {
      out += ' ';
      out += std::to_string(static_cast<int>(op.kind));
      out += ' ';
      out += std::to_string(op.object);
      out += ' ';
      out += std::to_string(op.payload);
    }
    out += '\n';
  }

  out += "violations ";
  append_u64(&out, frontier.violations.size());
  out += '\n';
  for (const ExploreViolation& v : frontier.violations) {
    out += "violation ";
    out += to_string(v.failure);
    out += '\n';
    out += "vschedule";
    for (const ProcId p : v.schedule) {
      out += ' ';
      out += std::to_string(p);
    }
    out += '\n';
    out += "vflips";
    for (const bool f : v.flips) {
      out += f ? " 1" : " 0";
    }
    out += '\n';
    if (!v.stales.empty()) {
      // Emitted only when non-empty so atomic-mode frontiers keep their
      // historical bytes.
      out += "vstales";
      for (const int c : v.stales) {
        out += ' ';
        out += std::to_string(c);
      }
      out += '\n';
    }
    out += "vnote ";
    for (const char c : v.note) {
      out += (c == '\n' || c == '\r') ? ' ' : c;  // notes stay one line
    }
    out += '\n';
  }

  out += "cache ";
  append_u64(&out, frontier.cache.size());
  out += '\n';
  for (const auto& [key, depth] : frontier.cache) {
    out += "seen ";
    append_hex(&out, key);
    out += ' ';
    out += std::to_string(static_cast<int>(depth));
    out += '\n';
  }

  out += "end\n";
  return out;
}

std::optional<Frontier> parse_frontier(const std::string& text,
                                       std::string* err) {
  LineReader r(text, "bprc-frontier", err);
  FrontierReader in;
  if (!r.header(in.frontier.version)) return std::nullopt;
  while (r.next_in_body()) {
    if (!in.read_line(r)) return std::nullopt;
  }
  if (r.truncated()) return std::nullopt;
  if (in.trail_left > 0 || in.violations_left > 0 || in.cache_left > 0) {
    r.fail_file("section shorter than its declared count");
    return std::nullopt;
  }
  in.frontier.stats.complete = in.frontier.complete;
  return std::move(in.frontier);
}

bool save_frontier(const std::string& path, const Frontier& frontier) {
  return write_file(path, serialize_frontier(frontier));
}

std::optional<Frontier> load_frontier(const std::string& path,
                                      std::string* err) {
  return load_file(path, err, parse_frontier);
}

}  // namespace bprc::explore

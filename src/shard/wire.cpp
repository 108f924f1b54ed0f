#include "shard/wire.hpp"

#include <cerrno>
#include <sstream>

#include <unistd.h>

#include "util/assert.hpp"
#include "util/line_record.hpp"

namespace bprc::shard {
namespace {

constexpr std::size_t kHeaderBytes = 5;  // 1 type byte + u32le length

bool write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t wrote = ::write(fd, data, len);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += static_cast<std::size_t>(wrote);
    len -= static_cast<std::size_t>(wrote);
  }
  return true;
}

constexpr std::string_view kKind = "bprc-shard";

bool reason_from_string(std::string_view name, RunResult::Reason* out) {
  for (const RunResult::Reason r :
       {RunResult::Reason::kAllDone, RunResult::Reason::kBudget,
        RunResult::Reason::kNoRunnable, RunResult::Reason::kDeadline}) {
    if (name == to_string(r)) {
      *out = r;
      return true;
    }
  }
  return false;
}

bool read_crash(LineReader& r, std::vector<CrashPlanAdversary::Crash>* out) {
  CrashPlanAdversary::Crash c{};
  if (!r.fields(&c.at_step, &c.victim)) return false;
  out->push_back(c);
  return true;
}

void emit_vec_line(std::ostringstream& out, const char* key,
                   const std::vector<int>& v) {
  out << key;
  for (const int x : v) out << ' ' << x;
  out << '\n';
}

// ---- failure block -------------------------------------------------------

void serialize_failure(std::ostringstream& out, const fault::TortureFailure& f) {
  out << "failure-begin\n";
  out << "protocol " << f.run.protocol << '\n';
  emit_vec_line(out, "inputs", f.run.inputs);
  out << "adversary " << f.run.adversary << '\n';
  for (const auto& c : f.run.crash_plan) {
    out << "plan-crash " << c.at_step << ' ' << c.victim << '\n';
  }
  out << "seed " << f.run.seed << '\n';
  out << "max-steps " << f.run.max_steps << '\n';
  // Unlike the user-facing repro format, the wire peers are always the
  // same binary, so the semantics line is unconditional (simpler parse).
  out << "semantics " << to_string(f.run.semantics) << '\n';
  // The space line stays conditional even on the wire: failure blocks
  // are embedded in `.bprc-shard` FILES, whose historical bytes the
  // fixture tests pin, and the canonical budget text round-trips through
  // SpaceBudget::parse either way.
  if (!f.run.space.is_default()) {
    out << "space " << f.run.space.to_string() << '\n';
  }
  out << "fail-class " << to_string(f.failure) << '\n';
  out << "fail-reason " << to_string(f.reason) << '\n';
  out << "schedule";
  for (const ProcId p : f.schedule) out << ' ' << p;
  out << '\n';
  if (!f.stales.empty()) emit_vec_line(out, "stales", f.stales);
  for (const auto& c : f.crashes) {
    out << "crash " << c.at_step << ' ' << c.victim << '\n';
  }
  const ConsensusRunResult& r = f.result;
  out << "res-flags " << r.all_decided << ' ' << r.consistent << ' '
      << r.valid << ' ' << r.bounded_ok << '\n';
  emit_vec_line(out, "res-decisions", r.decisions);
  out << "res-rounds";
  for (const std::int64_t x : r.decision_rounds) out << ' ' << x;
  out << '\n';
  out << "res-steps " << r.total_steps << ' ' << r.max_proc_steps << '\n';
  out << "res-max-round " << r.max_round << '\n';
  out << "res-footprint " << r.footprint.bounded << ' '
      << r.footprint.max_round_stored << ' ' << r.footprint.max_counter << ' '
      << r.footprint.coin_locations << ' ' << r.footprint.static_bound << '\n';
  out << "res-reason " << to_string(r.reason) << '\n';
  out << "failure-end\n";
}

/// One line of a failure block, other than `failure-end`. The wire peers
/// are the same binary, so unknown keys are an error, not a skip.
bool read_failure_line(LineReader& r, fault::TortureFailure* f) {
  const std::string_view key = r.key();
  fault::TortureRun& run = f->run;
  ConsensusRunResult& res = f->result;
  MemoryFootprint& fp = res.footprint;
  std::string_view name;
  if (key == "protocol") return r.fields(&run.protocol);
  if (key == "inputs") return r.list(&run.inputs);
  if (key == "adversary") return r.fields(&run.adversary);
  if (key == "plan-crash") return read_crash(r, &run.crash_plan);
  if (key == "seed") return r.fields(&run.seed);
  if (key == "max-steps") return r.fields(&run.max_steps);
  if (key == "stales") return r.list(&f->stales);
  if (key == "schedule") return r.list(&f->schedule);
  if (key == "crash") return read_crash(r, &f->crashes);
  if (key == "res-decisions") return r.list(&res.decisions);
  if (key == "res-rounds") return r.list(&res.decision_rounds);
  if (key == "res-max-round") return r.fields(&res.max_round);
  if (key == "res-steps") {
    return r.fields(&res.total_steps, &res.max_proc_steps);
  }
  if (key == "res-flags") {
    return r.fields(&res.all_decided, &res.consistent, &res.valid,
                    &res.bounded_ok);
  }
  if (key == "res-footprint") {
    return r.fields(&fp.bounded, &fp.max_round_stored, &fp.max_counter,
                    &fp.coin_locations, &fp.static_bound);
  }
  if (key == "semantics") {
    return r.fields(&name) &&
           (register_semantics_from_string(name, &run.semantics) ||
            r.malformed());
  }
  if (key == "fail-class") {
    return r.fields(&name) &&
           (failure_class_from_string(name, &f->failure) || r.malformed());
  }
  if (key == "fail-reason") {
    return r.fields(&name) &&
           (reason_from_string(name, &f->reason) || r.malformed());
  }
  if (key == "res-reason") {
    return r.fields(&name) &&
           (reason_from_string(name, &res.reason) || r.malformed());
  }
  if (key == "space") {
    std::string why;
    const auto parsed = SpaceBudget::parse(std::string(r.rest()), &why);
    if (!parsed.has_value()) return r.malformed(why);
    run.space = *parsed;
    return true;
  }
  return r.unknown_key();
}

/// Parses the lines after a `failure-begin` up to `failure-end`.
bool parse_failure(LineReader& r, fault::TortureFailure* f) {
  while (r.next()) {
    if (r.key() == "failure-end") {
      return r.fields() &&
             ((!f->run.protocol.empty() && !f->run.adversary.empty()) ||
              r.fail("failure block without protocol or adversary"));
    }
    if (!read_failure_line(r, f)) return false;
  }
  return r.fail_file("failure block not terminated (missing failure-end)");
}

/// Parses the current `outcome` line and the failure block that may
/// follow it, leaving the reader on the first line after the record.
bool parse_outcome(LineReader& r, IndexedRecord* out) {
  fault::OutcomeRecord& rec = out->second;
  std::string_view reason;
  std::string_view failure;
  if (!r.fields(&out->first, &rec.digest, &rec.steps, &reason, &failure)) {
    return false;
  }
  if (!reason_from_string(reason, &rec.reason) ||
      !failure_class_from_string(failure, &rec.failure)) {
    return r.malformed();
  }
  // A failure block only ever follows directly after its outcome line.
  if (!r.next() || r.key() != "failure-begin") return true;
  if (!parse_failure(r, &rec.detail.emplace())) return false;
  r.next();
  return true;
}

}  // namespace

bool write_frame(int fd, MsgType type, const std::string& payload) {
  BPRC_REQUIRE(payload.size() <= 0xFFFFFFFFu, "frame payload too large");
  char header[kHeaderBytes];
  header[0] = static_cast<char>(type);
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  header[1] = static_cast<char>(len & 0xFF);
  header[2] = static_cast<char>((len >> 8) & 0xFF);
  header[3] = static_cast<char>((len >> 16) & 0xFF);
  header[4] = static_cast<char>((len >> 24) & 0xFF);
  // Two write calls: the frame need not be atomic on the pipe because
  // each fd has exactly one reader buffering into a FrameReader, and
  // writers on the same fd hold a mutex around the whole call.
  if (!write_all(fd, header, kHeaderBytes)) return false;
  return write_all(fd, payload.data(), payload.size());
}

std::optional<Frame> FrameReader::next() {
  if (buf_.size() < kHeaderBytes) return std::nullopt;
  const auto b = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(buf_[i]));
  };
  const std::uint32_t len = b(1) | (b(2) << 8) | (b(3) << 16) | (b(4) << 24);
  if (buf_.size() < kHeaderBytes + len) return std::nullopt;
  Frame frame;
  frame.type = static_cast<MsgType>(b(0));
  frame.payload = buf_.substr(kHeaderBytes, len);
  buf_.erase(0, kHeaderBytes + len);
  return frame;
}

std::string serialize_record(std::size_t index,
                             const fault::OutcomeRecord& record) {
  std::ostringstream out;
  out << "outcome " << index << ' ' << record.digest << ' ' << record.steps
      << ' ' << to_string(record.reason) << ' ' << to_string(record.failure)
      << '\n';
  if (record.detail.has_value()) serialize_failure(out, *record.detail);
  return out.str();
}

std::optional<IndexedRecord> parse_record(const std::string& text,
                                          std::string* err) {
  LineReader r(text, kKind, err);
  IndexedRecord rec;
  if (!r.next() || r.key() != "outcome") {
    r.fail("record does not start with an outcome line");
    return std::nullopt;
  }
  if (!parse_outcome(r, &rec)) return std::nullopt;
  if (!r.key().empty()) {
    r.fail("trailing data after record");
    return std::nullopt;
  }
  return rec;
}

std::string serialize_shard_file(const ShardFile& shard) {
  std::ostringstream out;
  out << "bprc-shard v1\n";
  out << "fingerprint " << shard.fingerprint << '\n';
  out << "total-runs " << shard.total_runs << '\n';
  out << "max-failures " << shard.max_failures << '\n';
  out << "skipped-crash-cells " << shard.skipped_crash_cells << '\n';
  if (shard.skipped_safe_cells != 0) {
    // Optional line (weak-register campaigns only): omitted when zero so
    // atomic-only shard files keep their historical bytes.
    out << "skipped-safe-cells " << shard.skipped_safe_cells << '\n';
  }
  if (shard.skipped_space_cells != 0) {
    // Optional line (multi-budget campaigns only): same byte-stability
    // contract as skipped-safe-cells.
    out << "skipped-space-cells " << shard.skipped_space_cells << '\n';
  }
  out << "range " << shard.begin << ' ' << shard.end << '\n';
  for (const IndexedRecord& rec : shard.records) {
    out << serialize_record(rec.first, rec.second);
  }
  out << "end\n";
  return out.str();
}

std::optional<ShardFile> parse_shard_file(const std::string& text,
                                          std::string* err) {
  LineReader r(text, kKind, err);
  ShardFile shard;
  if (!r.header(1)) return std::nullopt;
  // Fixed header order — this is machine output, not hand-written.
  const auto line = [&](std::string_view key) {
    return r.next() && r.key() == key;
  };
  bool ok = line("fingerprint") && r.fields(&shard.fingerprint) &&
            line("total-runs") && r.fields(&shard.total_runs) &&
            line("max-failures") && r.fields(&shard.max_failures) &&
            line("skipped-crash-cells") &&
            r.fields(&shard.skipped_crash_cells) && r.next();
  // Optional lines between the fixed header and the range, written only
  // by campaigns that skipped kSafe cells, then space-insensitive cells.
  if (ok && r.key() == "skipped-safe-cells") {
    ok = r.fields(&shard.skipped_safe_cells) && r.next();
  }
  if (ok && r.key() == "skipped-space-cells") {
    ok = r.fields(&shard.skipped_space_cells) && r.next();
  }
  if (!ok || r.key() != "range" || !r.fields(&shard.begin, &shard.end) ||
      shard.begin > shard.end || shard.end > shard.total_runs) {
    r.malformed("shard header");
    return std::nullopt;
  }

  std::size_t expect = shard.begin;
  r.next();
  while (r.in_body()) {
    if (r.key() != "outcome") {
      r.fail("expected an outcome line, got: " + std::string(r.line()));
      return std::nullopt;
    }
    IndexedRecord rec;
    if (!parse_outcome(r, &rec)) return std::nullopt;
    if (rec.first != expect) {
      r.fail_file("record index " + std::to_string(rec.first) +
                  " out of order (expected " + std::to_string(expect) + ")");
      return std::nullopt;
    }
    ++expect;
    shard.records.push_back(std::move(rec));
  }
  if (r.truncated()) return std::nullopt;
  if (expect != shard.end) {
    r.fail_file("shard covers [" + std::to_string(shard.begin) + ", " +
                std::to_string(shard.end) + ") but has records up to " +
                std::to_string(expect));
    return std::nullopt;
  }
  return shard;
}

bool save_shard_file(const std::string& path, const ShardFile& shard) {
  return write_file(path, serialize_shard_file(shard));
}

std::optional<ShardFile> load_shard_file(const std::string& path,
                                         std::string* err) {
  return load_file(path, err, parse_shard_file);
}

}  // namespace bprc::shard

#include "fault/repro.hpp"

#include <algorithm>
#include <sstream>

#include "util/line_record.hpp"

namespace bprc::fault {

namespace {

std::string join_ints(const std::vector<int>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(v[i]);
  }
  return out;
}

/// One body line of a `.bprc-repro`. A malformed artifact must be
/// rejected, never mis-replayed: a schedule line that silently dropped
/// its tail at a garbage token would replay a *different* run and report
/// its verdict as if it were the recorded one. Hence every value must
/// consume its whole token, fixed-arity lines their whole line, and
/// single-valued sections may appear at most once.
bool read_line(LineReader& r, Repro* repro) {
  const std::string_view key = r.key();
  TortureRun& run = repro->run;
  std::string_view name;
  if (key == "plan-crash" || key == "crash") {
    CrashPlanAdversary::Crash crash{};
    if (!r.fields(&crash.at_step, &crash.victim)) return false;
    (key == "crash" ? repro->crashes : run.crash_plan).push_back(crash);
    return true;
  }
  if (key == "protocol") return r.once() && r.fields(&run.protocol);
  if (key == "inputs") return r.once() && r.list(&run.inputs);
  if (key == "adversary") return r.once() && r.fields(&run.adversary);
  if (key == "seed") return r.once() && r.fields(&run.seed);
  if (key == "max-steps") return r.once() && r.fields(&run.max_steps);
  if (key == "schedule") return r.once() && r.list(&repro->schedule);
  if (key == "flips") {
    return r.once() && (r.list(&repro->flips) || r.malformed("bits only"));
  }
  if (key == "stale-reads") {
    return r.once() && r.list(&repro->stales) &&
           (std::ranges::all_of(repro->stales, [](int c) { return c >= 0; }) ||
            r.malformed("choices are >= 0"));
  }
  if (key == "failure") {
    return r.once() && r.fields(&name) &&
           (failure_class_from_string(name, &repro->failure) ||
            r.malformed("unknown failure class"));
  }
  if (key == "mode") {
    if (!r.once() || !r.fields(&name)) return false;
    repro->generative = name == "generative";
    return repro->generative || r.malformed("unknown replay mode");
  }
  if (key == "note") {
    if (!r.once()) return false;
    repro->note = r.rest();
    return true;
  }
  if (key == "semantics") {
    if (!r.once() || !r.fields(&name)) return false;
    // Reject, never guess: a semantics this build does not know would
    // silently replay under the wrong register model and report its
    // verdict as if it were the recorded one.
    return register_semantics_from_string(name, &run.semantics) ||
           r.fail("unrecognized register semantics '" + std::string(name) +
                  "' (this build knows atomic, regular, safe)");
  }
  if (key == "space") {
    // Reject, never guess (the semantics precedent): a malformed budget
    // silently replaced by the default would replay a different protocol
    // layout and report its verdict as if it were recorded.
    if (!r.once()) return false;
    std::string why;
    const auto parsed = SpaceBudget::parse(std::string(r.rest()), &why);
    if (!parsed.has_value()) return r.malformed(why);
    run.space = *parsed;
    return true;
  }
  return true;  // unknown keys: skipped for forward compatibility
}

/// Whole-artifact checks, once the body has parsed.
bool validate(LineReader& r, const Repro& repro) {
  const int n = repro.run.n();
  if (repro.run.protocol.empty() || repro.run.inputs.empty() ||
      repro.run.adversary.empty()) {
    return r.fail_file("missing protocol, inputs or adversary");
  }
  if (repro.run.max_steps == 0) return r.fail_file("missing max-steps");
  if (n > kRunnableMaskBits) {
    // The simulator keeps its runnable set in one 64-bit mask and aborts
    // on a wider configuration; refuse the artifact with a diagnostic.
    return r.fail_file("recorded n=" + std::to_string(n) +
                       " exceeds this build's runnable-bitmask width (" +
                       std::to_string(kRunnableMaskBits) +
                       " processes); cannot replay this artifact");
  }
  if (!std::ranges::all_of(repro.schedule,
                           [n](ProcId p) { return p >= 0 && p < n; })) {
    return r.fail_file("schedule entry out of range");
  }
  for (const auto& crash : repro.crashes) {
    if (crash.victim < 0 || crash.victim >= n) {
      return r.fail_file("crash victim out of range");
    }
  }
  if (!repro.stales.empty() &&
      repro.run.semantics == RegisterSemantics::kAtomic) {
    // Choices that can never be consumed mean the artifact lost (or never
    // had) its semantics line — replaying it atomically would not be the
    // recorded run.
    return r.fail_file("stale-reads present but semantics is atomic");
  }
  return true;
}

}  // namespace

std::string serialize_repro(const Repro& repro) {
  std::ostringstream out;
  out << "bprc-repro v" << repro.version << "\n";
  out << "protocol " << repro.run.protocol << "\n";
  out << "inputs " << join_ints(repro.run.inputs) << "\n";
  out << "adversary " << repro.run.adversary << "\n";
  out << "seed " << repro.run.seed << "\n";
  out << "max-steps " << repro.run.max_steps << "\n";
  // Weak-register lines are omitted entirely under atomic semantics so
  // historical artifacts keep their exact bytes.
  if (repro.run.semantics != RegisterSemantics::kAtomic) {
    out << "semantics " << to_string(repro.run.semantics) << "\n";
  }
  // Same contract for the space lane: the default budget writes nothing.
  if (!repro.run.space.is_default()) {
    out << "space " << repro.run.space.to_string() << "\n";
  }
  out << "failure " << to_string(repro.failure) << "\n";
  if (!repro.note.empty()) out << "note " << repro.note << "\n";
  if (repro.generative) out << "mode generative\n";
  for (const auto& crash : repro.run.crash_plan) {
    out << "plan-crash " << crash.at_step << " " << crash.victim << "\n";
  }
  for (const auto& crash : repro.crashes) {
    out << "crash " << crash.at_step << " " << crash.victim << "\n";
  }
  if (!repro.flips.empty()) {
    out << "flips";
    for (const bool b : repro.flips) out << " " << (b ? 1 : 0);
    out << "\n";
  }
  if (!repro.stales.empty()) {
    out << "stale-reads";
    for (const int c : repro.stales) out << " " << c;
    out << "\n";
  }
  out << "schedule";
  for (const ProcId p : repro.schedule) out << " " << p;
  out << "\nend\n";
  return out.str();
}

std::optional<Repro> parse_repro(const std::string& text, std::string* err) {
  LineReader r(text, "bprc-repro", err);
  Repro repro;
  if (!r.header(repro.version)) return std::nullopt;
  while (r.next_in_body()) {
    if (!read_line(r, &repro)) return std::nullopt;
  }
  if (r.truncated() || !validate(r, repro)) return std::nullopt;
  return repro;
}

bool save_repro(const std::string& path, const Repro& repro) {
  return write_file(path, serialize_repro(repro));
}

std::optional<Repro> load_repro(const std::string& path, std::string* err) {
  return load_file(path, err, parse_repro);
}

ConsensusRunResult replay_repro(const Repro& repro) {
  if (repro.generative) {
    // Re-execute with the original adversary and seed — the only faithful
    // replay when no schedule could be recorded (worker-killing trials).
    return execute_run(repro.run, std::chrono::nanoseconds::zero(),
                       /*schedule=*/nullptr, /*crashes=*/nullptr);
  }
  return replay_run(repro.run, repro.schedule, repro.crashes,
                    /*reuse=*/nullptr,
                    repro.flips.empty() ? nullptr : &repro.flips,
                    repro.stales);
}

Repro make_repro(const TortureFailure& fail,
                 const std::vector<ProcId>& schedule,
                 const std::vector<CrashPlanAdversary::Crash>& crashes) {
  Repro repro;
  repro.run = fail.run;
  repro.failure = fail.failure;
  repro.schedule = schedule;
  repro.crashes = crashes;
  repro.stales = fail.stales;
  if (fail.failure == FailureClass::kWorkerCrash) {
    // The trial killed its worker before any trace could be streamed
    // back; only a generative re-execution reproduces it.
    repro.generative = true;
    repro.note = "trial killed its worker process (quarantined); "
                 "generative replay will re-trigger the crash";
    return repro;
  }
  std::string note = "reason=";
  note += to_string(fail.reason);
  note += " decisions=";
  note += join_ints(fail.result.decisions);
  repro.note = note;
  return repro;
}

}  // namespace bprc::fault

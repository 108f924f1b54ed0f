#include "verify/weakmem/recorder.hpp"

#include <sstream>

#include "util/line_record.hpp"

namespace bprc::weakmem {

namespace {

constexpr std::string_view kKind = "bprc-weakmem";
constexpr std::size_t kMaxThreads = 4096;

char kind_char(MemAction::Kind k) {
  switch (k) {
    case MemAction::Kind::kLoad:  return 'L';
    case MemAction::Kind::kStore: return 'S';
    case MemAction::Kind::kRmw:   return 'R';
  }
  return '?';
}

bool kind_from_char(char c, MemAction::Kind& out) {
  switch (c) {
    case 'L': out = MemAction::Kind::kLoad;  return true;
    case 'S': out = MemAction::Kind::kStore; return true;
    case 'R': out = MemAction::Kind::kRmw;   return true;
    default:  return false;
  }
}

bool read_action(LineReader& r, Recording* rec) {
  MemAction a;
  std::string_view kind;
  if (!r.fields(&a.thread, &a.seq, &a.location, &kind, &a.order, &a.value,
                &a.rf, &a.mo)) {
    return false;
  }
  if (kind.size() != 1 || !kind_from_char(kind[0], a.kind)) {
    return r.malformed("kind is L, S or R");
  }
  if (a.thread < 0 || static_cast<std::size_t>(a.thread) >= rec->logs.size()) {
    return r.malformed("thread out of range");
  }
  rec->logs[static_cast<std::size_t>(a.thread)].push_back(a);
  return true;
}

/// One body line; unknown keys are refused rather than misparsed.
bool read_line(LineReader& r, Recording* rec, std::size_t* locations,
               std::size_t* actions) {
  const std::string_view key = r.key();
  if (key == "act") return read_action(r, rec);
  if (key == "loc") {
    std::size_t id = 0;
    Recording::Location loc;
    if (!r.take(&id) || !r.take(&loc.initial)) return r.malformed();
    if (id != rec->locations.size()) return r.malformed("ids run 0, 1, ...");
    loc.name = r.rest();
    rec->locations.push_back(std::move(loc));
    return true;
  }
  if (key == "case") {
    if (!r.once() || !r.fields(&rec->case_name)) return false;
    if (rec->case_name == "-") rec->case_name.clear();
    return true;
  }
  if (key == "threads") {
    std::size_t k = 0;
    if (!r.once() || !r.fields(&k)) return false;
    if (k > kMaxThreads) return r.malformed("more than 4096 threads");
    rec->logs.resize(k);
    return true;
  }
  if (key == "locations") {
    if (!r.once() || !r.count(locations)) return false;
    rec->locations.reserve(*locations);
    return true;
  }
  if (key == "actions") return r.once() && r.count(actions);
  return r.unknown_key();
}

}  // namespace

std::string serialize_recording(const Recording& rec) {
  std::ostringstream out;
  out << kKind << " v1\n";
  out << "case " << (rec.case_name.empty() ? "-" : rec.case_name) << "\n";
  out << "threads " << rec.logs.size() << "\n";
  out << "locations " << rec.locations.size() << "\n";
  for (std::size_t i = 0; i < rec.locations.size(); ++i) {
    out << "loc " << i << " " << rec.locations[i].initial << " "
        << rec.locations[i].name << "\n";
  }
  out << "actions " << rec.total_actions() << "\n";
  for (const auto& log : rec.logs) {
    for (const MemAction& a : log) {
      out << "act " << a.thread << " " << a.seq << " " << a.location << " "
          << kind_char(a.kind) << " " << static_cast<int>(a.order) << " "
          << a.value << " " << a.rf << " " << a.mo << "\n";
    }
  }
  out << "end\n";
  return out.str();
}

std::optional<Recording> parse_recording(const std::string& text,
                                         std::string* err) {
  LineReader r(text, kKind, err);
  if (!r.header(1)) return std::nullopt;
  Recording rec;
  std::size_t locations = 0;
  std::size_t actions = 0;
  while (r.next_in_body()) {
    if (!read_line(r, &rec, &locations, &actions)) return std::nullopt;
  }
  if (r.truncated()) return std::nullopt;
  if (rec.locations.size() != locations || rec.total_actions() != actions) {
    r.fail_file("declared " + std::to_string(locations) + " locations and " +
                std::to_string(actions) + " actions, found " +
                std::to_string(rec.locations.size()) + " and " +
                std::to_string(rec.total_actions()));
    return std::nullopt;
  }
  return rec;
}

bool save_recording(const Recording& rec, const std::string& path) {
  return write_file(path, serialize_recording(rec));
}

std::optional<Recording> load_recording(const std::string& path,
                                        std::string* err) {
  return load_file(path, err, parse_recording);
}

bool is_weakmem_artifact(const std::string& path) {
  std::string text;
  return read_file(path, &text, nullptr) &&
         LineReader(text, kKind, nullptr).header(1);
}

}  // namespace bprc::weakmem

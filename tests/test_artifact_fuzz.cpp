// Deterministic mutation fuzzer for the artifact parsers, which all read
// through the line-record codec (src/util/line_record.hpp).
//
// Seeds: every artifact checked in under tests/data, plus a `.bprc-shard`
// file, a `.bprc-frontier` file and a single shard record built here.
// Mutants, all drawn from fixed seeds: byte flips, truncation at each
// line boundary, duplicated, deleted and swapped lines, and numeric tokens
// replaced by -1, 0, 2^63 and 2^64+1. Every mutant goes through every
// parser. A parser must return a value or an error with a non-empty
// diagnostic, and never throw or abort; an accepted input must reach a
// fixed point: serialize, parse again, serialize gives the same bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "explore/frontier.hpp"
#include "fault/repro.hpp"
#include "shard/wire.hpp"
#include "util/line_record.hpp"
#include "util/rng.hpp"
#include "verify/weakmem/recorder.hpp"

namespace bprc {
namespace {

/// Parses `text` and serializes the result; nullopt + `err` on reject.
using RoundTrip = std::optional<std::string> (*)(const std::string& text,
                                                 std::string* err);

template <auto Parse, auto Serialize>
std::optional<std::string> round_trip(const std::string& text,
                                      std::string* err) {
  const auto value = Parse(text, err);
  if (!value.has_value()) return std::nullopt;
  return Serialize(*value);
}

std::string serialize_indexed(const shard::IndexedRecord& rec) {
  return shard::serialize_record(rec.first, rec.second);
}

std::string serialize_weakmem(const weakmem::Recording& rec) {
  return weakmem::serialize_recording(rec);
}

struct Format {
  const char* name;
  RoundTrip round_trip;
};

const Format kFormats[] = {
    {".bprc-repro",
     round_trip<fault::parse_repro, fault::serialize_repro>},
    {".bprc-shard",
     round_trip<shard::parse_shard_file, shard::serialize_shard_file>},
    {".record", round_trip<shard::parse_record, serialize_indexed>},
    {".bprc-frontier",
     round_trip<explore::parse_frontier, explore::serialize_frontier>},
    {".bprc-weakmem", round_trip<weakmem::parse_recording, serialize_weakmem>},
};

struct Seed {
  std::string name;
  std::string text;
  const Format* format;
};

fault::OutcomeRecord failure_record() {
  fault::OutcomeRecord rec;
  rec.digest = 0xDEADBEEFCAFEF00DULL;
  rec.steps = 321;
  rec.reason = RunResult::Reason::kBudget;
  rec.failure = FailureClass::kConsistency;
  fault::TortureFailure f;
  f.run.protocol = "broken-racy";
  f.run.inputs = {0, 1, 1};
  f.run.adversary = "round-robin";
  f.run.crash_plan = {{12, 1}};
  f.run.seed = 777;
  f.run.max_steps = 100000;
  f.run.semantics = RegisterSemantics::kRegular;
  f.run.space.cycle_mult = 2;
  f.failure = FailureClass::kConsistency;
  f.reason = RunResult::Reason::kBudget;
  f.schedule = {0, 1, 2, 0, 1};
  f.stales = {1, 0};
  f.crashes = {{12, 1}, {30, 2}};
  f.result.decisions = {0, 1, -1};
  f.result.decision_rounds = {1, 1, 0};
  f.result.total_steps = 321;
  f.result.max_proc_steps = 130;
  f.result.max_round = 1;
  f.result.footprint = {true, 2, 3, 4, 5};
  f.result.reason = RunResult::Reason::kBudget;
  rec.detail = std::move(f);
  return rec;
}

shard::ShardFile sample_shard() {
  shard::ShardFile shard;
  shard.fingerprint = 0x1234567890ABCDEFULL;
  shard.total_runs = 10;
  shard.max_failures = 8;
  shard.skipped_crash_cells = 2;
  shard.skipped_safe_cells = 3;
  shard.skipped_space_cells = 4;
  shard.begin = 3;
  shard.end = 6;
  for (std::size_t i = shard.begin; i < shard.end; ++i) {
    fault::OutcomeRecord rec = i == 4 ? failure_record() : fault::OutcomeRecord{};
    rec.digest = 100 + i;
    shard.records.emplace_back(i, std::move(rec));
  }
  return shard;
}

explore::Frontier sample_frontier() {
  explore::Frontier f;
  f.fingerprint = 0x1F2E3D4C5B6A7988ULL;
  f.stats.executions = 1234;
  f.stats.stale_branches = 5;
  f.stats.schedule_digest = 0x60F38CFEECAD3890ULL;
  f.stats.seconds = 0.125;
  explore::FrontierNode s;
  s.chosen = 1;
  s.taken = 2;
  s.candidates = 0b11;
  s.sleep = 0b01;
  s.ops = {{OpDesc::Kind::kWrite, 3, -7}, {OpDesc::Kind::kRead, 4, 0}};
  explore::FrontierNode c;
  c.is_coin = true;
  c.coin_value = true;
  c.taken = 2;
  explore::FrontierNode t;
  t.is_stale = true;
  t.stale_value = 1;
  t.stale_options = 3;
  t.taken = 2;
  f.trail = {s, c, t};
  f.violations.push_back(
      {FailureClass::kConsistency, "decisions=0,1", {0, 1, 0, 1}, {true}, {1}});
  f.cache = {{0x9E3779B97F4A7C15ULL, 0}, {0x1BADB002DEADBEEFULL, 3}};
  return f;
}

const std::vector<Seed>& corpus() {
  static const std::vector<Seed> seeds = [] {
    std::vector<Seed> out;
    for (const auto& entry :
         std::filesystem::directory_iterator(BPRC_TEST_DATA_DIR)) {
      std::string text;
      EXPECT_TRUE(read_file(entry.path().string(), &text, nullptr));
      const std::string ext = entry.path().extension().string();
      const auto* format = std::find_if(
          std::begin(kFormats), std::end(kFormats),
          [&](const Format& f) { return ext == f.name; });
      EXPECT_NE(format, std::end(kFormats)) << entry.path();
      out.push_back({entry.path().filename().string(), std::move(text),
                     format});
    }
    // Directory order is unspecified; the mutants must not depend on it.
    std::sort(out.begin(), out.end(),
              [](const Seed& a, const Seed& b) { return a.name < b.name; });
    out.push_back({"generated.bprc-shard",
                   shard::serialize_shard_file(sample_shard()), &kFormats[1]});
    out.push_back({"generated.record",
                   shard::serialize_record(4, failure_record()), &kFormats[2]});
    out.push_back({"generated.bprc-frontier",
                   explore::serialize_frontier(sample_frontier()),
                   &kFormats[3]});
    return out;
  }();
  return seeds;
}

/// Runs `text` through every parser and checks the contract; `what`
/// names the mutant in failure messages.
void check_all_parsers(const std::string& text, const std::string& what) {
  for (const Format& format : kFormats) {
    std::string err;
    std::optional<std::string> once;
    try {
      once = format.round_trip(text, &err);
    } catch (const std::exception& e) {
      ADD_FAILURE() << format.name << " parser threw on " << what << ": "
                    << e.what() << "\n" << text;
      return;
    }
    if (!once.has_value()) {
      EXPECT_FALSE(err.empty())
          << format.name << " rejected " << what << " without a diagnostic";
      continue;
    }
    const std::optional<std::string> twice = format.round_trip(*once, &err);
    ASSERT_TRUE(twice.has_value())
        << format.name << " accepted " << what
        << " but refused its own serialization: " << err << "\n" << *once;
    EXPECT_EQ(*twice, *once) << format.name << " has no fixed point on "
                             << what;
  }
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = std::min(text.find('\n', pos), text.size());
    lines.push_back(text.substr(pos, nl + 1 - pos));
    pos = nl + 1;
  }
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

/// Indices into [0, n): every one for a small seed, `samples` seeded
/// picks for a large one.
std::vector<std::size_t> pick(std::size_t n, std::size_t samples, Rng& rng) {
  constexpr std::size_t kExhaustive = 256;
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < (n <= kExhaustive ? n : samples); ++i) {
    out.push_back(n <= kExhaustive ? i : rng.below(n));
  }
  return out;
}

TEST(ArtifactFuzz, CorpusReserializesByteForByte) {
  ASSERT_GE(corpus().size(), 9u);
  for (const Seed& seed : corpus()) {
    ASSERT_NE(seed.format, std::end(kFormats)) << seed.name;
    std::string err;
    const auto out = seed.format->round_trip(seed.text, &err);
    ASSERT_TRUE(out.has_value()) << seed.name << ": " << err;
    EXPECT_EQ(*out, seed.text) << seed.name;
    check_all_parsers(seed.text, seed.name);
  }
}

TEST(ArtifactFuzz, ByteFlips) {
  const char kBytes[] = {' ', '\n', '\t', '\r', '#', '-', '0', '9', 'f',
                         'x', '\0', '\xff'};
  Rng rng(0xF11B);
  for (const Seed& seed : corpus()) {
    for (int mutant = 0; mutant < 96; ++mutant) {
      std::string text = seed.text;
      const std::uint64_t flips = 1 + rng.below(4);
      for (std::uint64_t i = 0; i < flips; ++i) {
        char& c = text[rng.below(text.size())];
        if (rng.below(2) == 0) {
          c = static_cast<char>(c ^ (1 << rng.below(8)));
        } else {
          c = kBytes[rng.below(sizeof kBytes)];
        }
      }
      // Every fourth mutant also loses its tail, possibly mid-line.
      if (mutant % 4 == 3) text.resize(rng.below(text.size()));
      check_all_parsers(text, seed.name + " byte-flip #" +
                                  std::to_string(mutant));
      if (HasFailure()) return;
    }
  }
}

TEST(ArtifactFuzz, TruncationAtEachLineBoundary) {
  for (const Seed& seed : corpus()) {
    for (std::size_t nl = seed.text.find('\n'); nl != std::string::npos;
         nl = seed.text.find('\n', nl + 1)) {
      check_all_parsers(seed.text.substr(0, nl + 1),
                        seed.name + " cut at byte " + std::to_string(nl + 1));
      if (HasFailure()) return;
    }
  }
}

TEST(ArtifactFuzz, DuplicatedDeletedAndSwappedLines) {
  Rng rng(0x11E5);
  for (const Seed& seed : corpus()) {
    const std::vector<std::string> lines = split_lines(seed.text);
    for (const std::size_t i : pick(lines.size(), 48, rng)) {
      std::vector<std::string> dup = lines;
      dup.insert(dup.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
      check_all_parsers(join(dup), seed.name + " dup line " +
                                       std::to_string(i));
      std::vector<std::string> del = lines;
      del.erase(del.begin() + static_cast<std::ptrdiff_t>(i));
      check_all_parsers(join(del), seed.name + " delete line " +
                                       std::to_string(i));
      std::vector<std::string> swap = lines;
      const std::size_t j = rng.below(lines.size());
      std::swap(swap[i], swap[j]);
      check_all_parsers(join(swap), seed.name + " swap lines " +
                                        std::to_string(i) + "," +
                                        std::to_string(j));
      if (HasFailure()) return;
    }
  }
}

TEST(ArtifactFuzz, NumericTokensAtTheirLimits) {
  const char* kValues[] = {"-1", "0", "9223372036854775808",
                           "18446744073709551617"};
  Rng rng(0x2E64);
  for (const Seed& seed : corpus()) {
    // Offsets and lengths of every all-digit token.
    std::vector<std::pair<std::size_t, std::size_t>> tokens;
    const std::string& text = seed.text;
    for (std::size_t i = 0; i < text.size();) {
      std::size_t j = i;
      while (j < text.size() && text[j] != ' ' && text[j] != '\n') ++j;
      if (j > i && std::all_of(text.begin() + static_cast<std::ptrdiff_t>(i),
                               text.begin() + static_cast<std::ptrdiff_t>(j),
                               [](char c) { return c >= '0' && c <= '9'; })) {
        tokens.emplace_back(i, j - i);
      }
      i = j + 1;
    }
    for (const std::size_t t : pick(tokens.size(), 32, rng)) {
      for (const char* value : kValues) {
        std::string mutant = text;
        mutant.replace(tokens[t].first, tokens[t].second, value);
        check_all_parsers(mutant, seed.name + " token at byte " +
                                      std::to_string(tokens[t].first) +
                                      " = " + value);
      }
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace bprc

// The line-record codec behind every artifact format: `.bprc-repro`
// (fault/repro), `.bprc-shard` (shard/wire), `.bprc-frontier`
// (explore/frontier) and `.bprc-weakmem` (verify/weakmem/recorder).
// One grammar, read in one place:
//
//   bprc-<kind> v<N>      header, the first line
//   key token token ...   one record per line; tokens split on whitespace
//   # comment             blank lines and lines whose first token starts
//                         with '#' are skipped everywhere
//   end                   guard: input that stops before it is truncated
//
// A token is consumed whole or not at all: "7x" is not 7, "1e6" is not a
// count, and a number outside its target type is malformed, never
// wrapped. A declared count may not exceed the lines left in the input,
// so a caller may reserve() it. Every diagnostic reads
// `<kind>:<line>: <what>`, or `<kind>: <what>` for checks over the whole
// record. What to do with an unknown key stays each format's own policy
// (docs/TESTING.md, "Artifact formats").
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace bprc {

class LineReader {
 public:
  /// Token target for a hex number: `r.take(LineReader::Hex{&v})`.
  struct Hex {
    std::uint64_t* out;
  };

  /// `kind` names the format in diagnostics, e.g. "bprc-repro". `err`
  /// may be null; `text` must outlive the reader.
  LineReader(std::string_view text, std::string_view kind, std::string* err)
      : text_(text), kind_(kind), err_(err) {}

  /// Reads the header line `<kind> v<version>`.
  bool header(int version);

  /// Advances to the next line that is neither blank nor a comment.
  /// False at end of input, where key() and line() become empty.
  bool next();

  /// For an `end`-guarded body: true while the current line is a body
  /// line; false at `end`, and false with a "truncated" diagnostic at end
  /// of input, which truncated() then reports.
  bool in_body();
  bool next_in_body() {
    next();
    return in_body();
  }
  bool truncated() const { return truncated_; }

  std::string_view key() const { return key_; }
  std::string_view line() const { return line_; }

  /// Token readers. Each consumes one token and returns false, without a
  /// diagnostic, when the token is missing or malformed.
  bool take(std::string_view* out);
  bool take(std::string* out);
  bool take(bool* out);  ///< "0" or "1"
  bool take(Hex out);
  template <class T>
    requires std::is_arithmetic_v<T>
  bool take(T* out) {
    return whole_number(token(), out);
  }

  /// Exactly these tokens and nothing more; on failure the diagnostic is
  /// malformed(). `fields()` checks that the line is used up.
  template <class... T>
  bool fields(T... out) {
    return ((take(out) && ...) && done()) || malformed();
  }

  /// Every remaining token of the line, appended to `out`.
  template <class T>
  bool list(std::vector<T>* out);

  /// The rest of the line after the tokens taken so far, minus one
  /// separating space.
  std::string_view rest();

  /// A count of lines to follow. One larger than the lines left in the
  /// input is refused, so the caller may reserve() it.
  bool count(std::size_t* out);

  /// False, with a diagnostic, if once() already accepted this key.
  bool once();

  /// Diagnostics; each returns false so a parser can `return r.fail(..)`.
  bool fail(std::string_view what);       ///< `<kind>:<line>: <what>`
  bool fail_file(std::string_view what);  ///< `<kind>: <what>`
  /// "malformed <key> line (<why>): <line>".
  bool malformed(std::string_view why = {});
  bool unknown_key();

 private:
  /// from_chars over the whole token: no prefix match, no wrap-around.
  template <class T, class... Base>
  static bool whole_number(std::string_view tok, T* out, Base... base) {
    const char* end = tok.data() + tok.size();
    T value{};
    const auto [ptr, ec] = std::from_chars(tok.data(), end, value, base...);
    if (tok.empty() || ec != std::errc() || ptr != end) return false;
    *out = value;
    return true;
  }

  std::string_view token();
  bool done() const;

  std::string_view text_;
  std::string_view kind_;
  std::string* err_;
  std::size_t pos_ = 0;  ///< start of the next unread line
  std::size_t line_no_ = 0;
  std::string_view line_;
  std::string_view key_;
  std::size_t cursor_ = 0;  ///< offset of the next token in line_
  bool truncated_ = false;
  std::vector<std::string_view> once_;
};

template <class T>
bool LineReader::list(std::vector<T>* out) {
  while (!done()) {
    T value{};
    if (!take(&value)) return malformed();
    out->push_back(value);
  }
  return true;
}

/// Whole-file I/O for the artifact formats. read_file reports "cannot
/// open <path>"; write_file truncates, flushes and reports any failure.
bool read_file(const std::string& path, std::string* text, std::string* err);
bool write_file(const std::string& path, std::string_view text);

/// read_file, then `parse(text, err)`: the body of every load_* wrapper.
template <class Parse>
auto load_file(const std::string& path, std::string* err, Parse parse)
    -> decltype(parse(std::string(), err)) {
  std::string text;
  if (!read_file(path, &text, err)) return {};
  return parse(text, err);
}

}  // namespace bprc

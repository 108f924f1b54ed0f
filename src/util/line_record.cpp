#include "util/line_record.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>

namespace bprc {

namespace {

bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

bool LineReader::header(int version) {
  std::string_view tag;
  if (!next() || key_ != kind_) {
    return fail_file("not a " + std::string(kind_) + " file (missing header)");
  }
  if (!take(&tag) || !done() || tag != "v" + std::to_string(version)) {
    return fail("unsupported " + std::string(kind_) + " version: " +
                std::string(line_));
  }
  return true;
}

bool LineReader::next() {
  while (pos_ < text_.size()) {
    const std::size_t nl = std::min(text_.find('\n', pos_), text_.size());
    line_ = text_.substr(pos_, nl - pos_);
    pos_ = std::min(nl + 1, text_.size());
    ++line_no_;
    cursor_ = 0;
    key_ = token();
    if (!key_.empty() && key_.front() != '#') return true;
  }
  line_ = key_ = {};
  return false;
}

bool LineReader::in_body() {
  if (key_.empty()) {
    truncated_ = true;
    return fail_file("truncated " + std::string(kind_) +
                     " file (missing 'end')");
  }
  return key_ != "end";
}

std::string_view LineReader::token() {
  while (cursor_ < line_.size() && is_space(line_[cursor_])) ++cursor_;
  const std::size_t start = cursor_;
  while (cursor_ < line_.size() && !is_space(line_[cursor_])) ++cursor_;
  return line_.substr(start, cursor_ - start);
}

bool LineReader::done() const {
  return std::all_of(line_.begin() + static_cast<std::ptrdiff_t>(cursor_),
                     line_.end(), is_space);
}

bool LineReader::take(std::string_view* out) {
  *out = token();
  return !out->empty();
}

bool LineReader::take(std::string* out) {
  const std::string_view tok = token();
  *out = tok;
  return !tok.empty();
}

bool LineReader::take(bool* out) {
  const std::string_view tok = token();
  if (tok != "0" && tok != "1") return false;
  *out = tok == "1";
  return true;
}

bool LineReader::take(Hex out) { return whole_number(token(), out.out, 16); }

std::string_view LineReader::rest() {
  std::string_view out = line_.substr(cursor_);
  if (!out.empty() && out.front() == ' ') out.remove_prefix(1);
  cursor_ = line_.size();
  return out;
}

bool LineReader::count(std::size_t* out) {
  if (!fields(out)) return false;
  const auto left = static_cast<std::size_t>(
      std::count(text_.begin() + static_cast<std::ptrdiff_t>(pos_),
                 text_.end(), '\n') + 1);
  if (*out <= left) return true;
  return fail("declared count " + std::to_string(*out) + " exceeds the " +
              std::to_string(left) + " lines left");
}

bool LineReader::once() {
  if (std::find(once_.begin(), once_.end(), key_) != once_.end()) {
    return fail("duplicate " + std::string(key_) + " line");
  }
  once_.push_back(key_);
  return true;
}

bool LineReader::fail(std::string_view what) {
  if (err_ != nullptr) {
    *err_ = std::string(kind_) + ':' + std::to_string(line_no_) + ": ";
    *err_ += what;
  }
  return false;
}

bool LineReader::fail_file(std::string_view what) {
  if (err_ != nullptr) {
    *err_ = std::string(kind_) + ": ";
    *err_ += what;
  }
  return false;
}

bool LineReader::malformed(std::string_view why) {
  if (key_.empty()) return fail("unexpected end of input");
  std::string what = "malformed " + std::string(key_) + " line";
  if (!why.empty()) what += " (" + std::string(why) + ")";
  return fail(what + ": " + std::string(line_));
}

bool LineReader::unknown_key() {
  return fail("unknown key '" + std::string(key_) + "'");
}

bool read_file(const std::string& path, std::string* text, std::string* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (err != nullptr) *err = "cannot open " + path;
    return false;
  }
  text->assign(std::istreambuf_iterator<char>(in), {});
  return true;
}

bool write_file(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return static_cast<bool>(out.flush());
}

}  // namespace bprc

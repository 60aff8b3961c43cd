// Minimal strict JSON validity checker for the observability suites: just
// enough grammar (objects, arrays, strings with escapes, numbers, literals)
// to prove an exported document parses, with none of a real parser's value
// model. Test-only. Production code does read JSON back (the fuzzing farm
// loads its corpus files through src/fuzz/json_read.h); this checker
// validates exports without depending on that reader.
#pragma once

#include <cctype>
#include <string_view>

namespace pmc::test_support {

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : s_(text) {}

  /// True iff the whole input is exactly one valid JSON value.
  bool valid() {
    ws();
    if (!value()) return false;
    ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return lit("true");
      case 'f': return lit("false");
      case 'n': return lit("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    ws();
    if (peek('}')) { ++pos_; return true; }
    while (true) {
      ws();
      if (!string()) return false;
      ws();
      if (!expect(':')) return false;
      ws();
      if (!value()) return false;
      ws();
      if (peek(',')) { ++pos_; continue; }
      return expect('}');
    }
  }

  bool array() {
    ++pos_;  // '['
    ws();
    if (peek(']')) { ++pos_; return true; }
    while (true) {
      ws();
      if (!value()) return false;
      ws();
      if (peek(',')) { ++pos_; continue; }
      return expect(']');
    }
  }

  bool string() {
    if (!expect('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    return expect('"');
  }

  bool number() {
    const size_t start = pos_;
    if (peek('-')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool lit(std::string_view what) {
    if (s_.substr(pos_, what.size()) != what) return false;
    pos_ += what.size();
    return true;
  }

  void ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool peek(char c) const { return pos_ < s_.size() && s_[pos_] == c; }

  bool expect(char c) {
    if (!peek(c)) return false;
    ++pos_;
    return true;
  }

  std::string_view s_;
  size_t pos_ = 0;
};

inline bool json_valid(std::string_view text) {
  return JsonChecker(text).valid();
}

}  // namespace pmc::test_support

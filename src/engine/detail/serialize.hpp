// detail/serialize.hpp — locale-independent CSV/JSON primitives shared by the
// engine's result formats (aggregate.cpp, sim_aggregate.cpp). Everything here
// round-trips: what fmt_double/JsonCursor emit and consume is byte-stable
// across hosts, which the thread-count-invariance guarantees depend on.
#pragma once

#include <cctype>
#include <charconv>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace profisched::engine::detail {

// std::to_chars / from_chars, not printf/strtod: the serialized formats must
// not bend to the host's LC_NUMERIC (a ',' decimal separator would corrupt
// both the CSV column count and the JSON grammar).
inline std::string fmt_double(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, 6);
  return ec == std::errc{} ? std::string(buf, end) : std::string("nan");
}

/// Shortest round-trip formatting: from_chars(fmt_double_exact(v)) == v
/// bit-exactly. Used where a serialized spec must restore the original double
/// (shard manifests — a fixed-precision detour there would break the merged
/// output's byte-identity guarantee); the result tables keep fixed-6
/// fmt_double for stable column widths.
inline std::string fmt_double_exact(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, end) : std::string("nan");
}

inline std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::string cell;
  std::istringstream is(line);
  while (std::getline(is, cell, sep)) out.push_back(cell);
  return out;
}

inline double to_double(const std::string& s) {
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw std::invalid_argument("engine serialize: bad number '" + s + "'");
  }
  return v;
}

inline std::size_t to_size(const std::string& s) {
  unsigned long long v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw std::invalid_argument("engine serialize: bad count '" + s + "'");
  }
  return static_cast<std::size_t>(v);
}

/// Signed 64-bit parse (Ticks columns may carry kNoBound = INT64_MAX).
inline long long to_ll(const std::string& s) {
  long long v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw std::invalid_argument("engine serialize: bad integer '" + s + "'");
  }
  return v;
}

/// Cursor over the engine's own JSON output. Handles exactly the grammar
/// the engine's to_json methods emit (objects, arrays, strings without
/// escapes, numbers) — not a general JSON parser.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : text_(text) {}

  void expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      throw std::invalid_argument(std::string("engine serialize: expected '") + c +
                                  "' at offset " + std::to_string(pos_));
    }
    ++pos_;
  }

  [[nodiscard]] bool peek(char c) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  [[nodiscard]] std::string string() {
    expect('"');
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') ++pos_;
    if (pos_ >= text_.size()) throw std::invalid_argument("engine serialize: unterminated string");
    return text_.substr(start, pos_++ - start);
  }

  [[nodiscard]] double number() {
    skip_ws();
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(text_.data() + pos_, text_.data() + text_.size(), v);
    if (ec != std::errc{} || ptr == text_.data() + pos_) {
      throw std::invalid_argument("engine serialize: expected number at offset " +
                                  std::to_string(pos_));
    }
    pos_ = static_cast<std::size_t>(ptr - text_.data());
    return v;
  }

  /// Integer-exact variant of number() for 64-bit columns (a double detour
  /// would corrupt kNoBound and large tick values).
  [[nodiscard]] long long integer() {
    skip_ws();
    long long v = 0;
    const auto [ptr, ec] = std::from_chars(text_.data() + pos_, text_.data() + text_.size(), v);
    if (ec != std::errc{} || ptr == text_.data() + pos_) {
      throw std::invalid_argument("engine serialize: expected integer at offset " +
                                  std::to_string(pos_));
    }
    pos_ = static_cast<std::size_t>(ptr - text_.data());
    return v;
  }

  /// Unsigned 64-bit parse (seed columns use the full uint64 range, which a
  /// signed parse would reject above INT64_MAX).
  [[nodiscard]] unsigned long long uinteger() {
    skip_ws();
    unsigned long long v = 0;
    const auto [ptr, ec] = std::from_chars(text_.data() + pos_, text_.data() + text_.size(), v);
    if (ec != std::errc{} || ptr == text_.data() + pos_) {
      throw std::invalid_argument("engine serialize: expected unsigned integer at offset " +
                                  std::to_string(pos_));
    }
    pos_ = static_cast<std::size_t>(ptr - text_.data());
    return v;
  }

  void key(const char* name) {
    const std::string k = string();
    if (k != name) {
      throw std::invalid_argument(std::string("engine serialize: expected key '") + name +
                                  "', got '" + k + "'");
    }
    expect(':');
  }

  /// Optional-key lookahead: consume `"name":` and return true when the next
  /// key matches, otherwise restore the cursor and return false. Lets one
  /// reader accept both the classic and the axis-extended grammars the
  /// engine's multi-axis formats emit.
  [[nodiscard]] bool try_key(const char* name) {
    const std::size_t saved = pos_;
    if (!peek('"')) return false;
    const std::string k = string();
    if (k != name || !peek(':')) {
      pos_ = saved;
      return false;
    }
    expect(':');
    return true;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace profisched::engine::detail

#include "common/parse.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <system_error>

namespace timing {

bool parse_long(const std::string& s, long& out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  out = v;
  return true;
}

bool parse_int(const std::string& s, int& out) {
  long v = 0;
  if (!parse_long(s, v)) return false;
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  if (!std::isfinite(v)) return false;
  out = v;
  return true;
}

std::string format_double(double v) {
  // "%.17g" of any double is at most 24 bytes ("-2.2250738585072014e-308").
  char buf[32];
  char* end = buf;
  for (int prec = 6; prec <= 17; ++prec) {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                        prec)
              .ptr;
    double back = 0.0;
    if (std::from_chars(buf, end, back).ec == std::errc() && back == v) break;
  }
  return std::string(buf, end);
}

namespace {

template <typename T, bool (*ParseOne)(const std::string&, T&)>
bool parse_list(const std::string& s, std::vector<T>& out) {
  std::vector<T> vals;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = s.find(',', start);
    const std::string item = s.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    T v{};
    if (!ParseOne(item, v)) return false;
    vals.push_back(v);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (vals.empty()) return false;
  out = std::move(vals);
  return true;
}

}  // namespace

bool parse_int_list(const std::string& s, std::vector<int>& out) {
  return parse_list<int, parse_int>(s, out);
}

bool parse_double_list(const std::string& s, std::vector<double>& out) {
  return parse_list<double, parse_double>(s, out);
}

void JsonlLine::fail(const std::string& why) const {
  throw std::runtime_error(std::string(source_) + " line " +
                           std::to_string(line_no_) + ": " + why);
}

std::optional<long long> JsonlLine::find_int(const std::string& key) const {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line_.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  const char* start = line_.c_str() + pos + needle.size();
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(start, &end, 10);
  if (end == start || errno != 0) fail("bad integer for '" + key + "'");
  return v;
}

long long JsonlLine::require_int(const std::string& key) const {
  const auto v = find_int(key);
  if (!v) fail("missing field '" + key + "'");
  return *v;
}

std::optional<std::string> JsonlLine::find_str(const std::string& key) const {
  const std::string needle = "\"" + key + "\":\"";
  const auto pos = line_.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  std::size_t at = pos + needle.size() - 1;  // the opening quote
  return read_string(at);
}

std::string JsonlLine::read_string(std::size_t& pos) const {
  if (pos >= line_.size() || line_[pos] != '"') fail("expected '\"'");
  std::string out;
  for (std::size_t i = pos + 1; i < line_.size(); ++i) {
    const char c = line_[i];
    if (c == '"') {
      pos = i + 1;
      return out;
    }
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i >= line_.size()) break;
    switch (line_[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'u': {
        if (i + 4 >= line_.size()) fail("truncated \\u escape");
        const std::string hex = line_.substr(i + 1, 4);
        char* end = nullptr;
        const long cp = std::strtol(hex.c_str(), &end, 16);
        if (end != hex.c_str() + 4 || cp < 0 || cp > 0x7f) {
          fail("unsupported \\u escape");
        }
        out += static_cast<char>(cp);
        i += 4;
        break;
      }
      default: fail("unknown escape");
    }
  }
  fail("unterminated string");
}

}  // namespace timing

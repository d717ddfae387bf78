// Checked string-to-number parsing shared by every CLI surface (the
// scenario override grammar, timing_lab, trace_tool) and the TIMING_*
// environment knobs. All parsers consume the ENTIRE string: trailing
// garbage ("12x", "1.5.2") is a parse failure, not a silent truncation
// the way std::atoi / bare strtol would treat it. It also holds the
// round-trip double formatter the fault-plan and adversary-archive texts
// share, and the field scanner that both JSONL readers (traces, results)
// share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace timing {

/// Base-10 integer; rejects empty strings, overflow, and trailing bytes.
bool parse_long(const std::string& s, long& out);
bool parse_int(const std::string& s, int& out);
bool parse_u64(const std::string& s, std::uint64_t& out);

/// Floating point (strtod grammar); rejects inf/nan spellings and
/// trailing bytes.
bool parse_double(const std::string& s, double& out);

/// Shortest "%.<prec>g" spelling of `v`, trying prec = 6 up to 17, that
/// reads back to exactly `v`; "%.17g" when none does (NaN, and values
/// whose reading underflows). Byte-identical to streaming `v` at that
/// precision. Fault-plan specs and archive headers are replay keys, so a
/// format/parse round trip must not move a single drop threshold.
std::string format_double(double v);

/// Comma-separated lists; every element must parse and the list must be
/// non-empty ("140,200" -> {140, 200}).
bool parse_int_list(const std::string& s, std::vector<int>& out);
bool parse_double_list(const std::string& s, std::vector<double>& out);

/// Field scanner over one line of a flat JSONL record
/// (`{"e":"row","id":0}`): a field is found by its `"key":` needle.
/// Every error throws std::runtime_error("<source> line <N>: <why>"),
/// the reader's own prefix ("trace", "results"). Holds a reference: the
/// line must outlive the scanner.
class JsonlLine {
 public:
  JsonlLine(const std::string& line, const char* source, std::size_t line_no)
      : line_(line), source_(source), line_no_(line_no) {}

  const std::string& text() const { return line_; }

  [[noreturn]] void fail(const std::string& why) const;

  /// `"key":<integer>`; nullopt when absent.
  std::optional<long long> find_int(const std::string& key) const;
  /// find_int, failing with "missing field 'key'" when absent.
  long long require_int(const std::string& key) const;
  /// `"key":"<string>"` with its escapes decoded; nullopt when absent.
  std::optional<std::string> find_str(const std::string& key) const;
  /// The string whose opening quote is text()[pos], escapes decoded;
  /// advances pos past its closing quote.
  std::string read_string(std::size_t& pos) const;

 private:
  const std::string& line_;
  const char* source_;
  std::size_t line_no_;
};

}  // namespace timing

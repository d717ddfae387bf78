// Minimal fixed-width table printer. Every scenario prints the rows /
// series of one of the paper's subfigures through this, so the output is
// uniform and easy to diff against EXPERIMENTS.md.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace timing {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Append one row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Convenience: format doubles with the given precision.
  static std::string num(double v, int precision = 3);
  /// Format as integer (rounded).
  static std::string integer(double v);

  /// Render with column alignment, a separator under the header, and an
  /// optional caption line above.
  void print(std::ostream& os, const std::string& caption = "") const;

  /// Render as CSV (caption as a leading '#' comment). Cells containing
  /// commas or quotes are quoted per RFC 4180.
  void print_csv(std::ostream& os, const std::string& caption = "") const;

  std::size_t rows() const noexcept { return rows_.size(); }

  /// Structured access for machine emitters (the scenario results JSONL
  /// writer re-emits every printed table row).
  const std::vector<std::string>& header() const noexcept { return header_; }
  const std::vector<std::vector<std::string>>& body() const noexcept {
    return rows_;
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace timing

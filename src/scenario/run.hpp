// Execution context shared by every scenario runner: where tables and
// prose go, whether tables render as CSV, and the optional structured
// results stream. Runners write tables and prose ONLY through this, so
// the same runner byte-identically serves `timing_lab run` (text to
// stdout), --csv pipelines, and timing_lab's JSONL emission. A runner's
// own "error: ..." lines go to std::cerr, never into a table stream.
#pragma once

#include <iosfwd>
#include <string>

#include "common/table.hpp"
#include "scenario/results.hpp"

namespace timing::scenario {

struct RunContext {
  std::ostream* out = nullptr;       ///< tables + prose destination
  bool csv = false;                  ///< --csv: machine-readable tables
  ResultWriter* results = nullptr;   ///< null = no structured emission

  std::ostream& os() const { return *out; }

  /// Print a table honouring the output mode, and mirror its rows into
  /// the results stream when one is attached.
  void emit(const Table& t, const std::string& caption = "") const;
};

}  // namespace timing::scenario

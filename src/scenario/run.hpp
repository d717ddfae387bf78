// Execution context shared by every scenario runner: where tables and
// prose go, whether tables render as CSV, the optional structured
// results stream and the optional trace collector. Runners write tables
// and prose ONLY through this, so the same runner byte-identically
// serves `timing_lab run` (text to stdout), --csv pipelines, and
// timing_lab's JSONL emission. A runner's own "error: ..." lines go to
// std::cerr, never into a table stream.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "obs/jsonl.hpp"
#include "obs/span.hpp"
#include "scenario/results.hpp"

namespace timing::scenario {

struct RunContext {
  std::ostream* out = nullptr;       ///< tables + prose destination
  bool csv = false;                  ///< --csv: machine-readable tables
  ResultWriter* results = nullptr;   ///< null = no structured emission
  /// Null = no trace. A runner that records a trace appends one
  /// TrialTrace (its id, its own n and its events) per trial. Runners
  /// fill it and never write files: timing_lab, the only code that sets
  /// it (from TIMING_TRACE), writes the file once the run returns.
  std::vector<TrialTrace>* trace = nullptr;
  /// The span events an SMR runner adds to each traced trial. timing_lab
  /// sets it from TIMING_SPANS, and only when it sets `trace`.
  SpanMode spans = SpanMode::kOff;

  std::ostream& os() const { return *out; }

  /// Print a table honouring the output mode, and mirror its rows into
  /// the results stream when one is attached.
  void emit(const Table& t, const std::string& caption = "") const;
};

}  // namespace timing::scenario

// Schema-versioned JSONL trace encoding: one JSON object per line, plain
// text (gzip-agnostic — compress the file externally if desired).
//
// Layout of a trace file:
//   {"schema":"timing-trace","v":1,"n":4}          <- header, exactly once
//   {"e":"trial","id":0}                           <- trial delimiter
//   {"e":"trial","id":1,"n":3}                     <- optional per-trial n
//   {"e":"round_start","k":1}
//   {"e":"sent","k":1,"s":0,"d":1}
//   {"e":"timely","k":1,"s":0,"d":1}
//   {"e":"late","k":1,"s":0,"d":2,"delay":3}
//   {"e":"lost","k":1,"s":2,"d":0}
//   {"e":"oracle","k":1,"p":0,"ld":2}
//   {"e":"pred","k":1,"sat":13}                    <- bit i = model index i
//   {"e":"decide","k":5,"p":1,"v":42,"rule":2}
//   {"e":"crash","k":3,"p":2}
//   {"e":"fault","k":2,"fk":4,"s":0,"d":1}        <- fk = FaultKind

//   {"e":"round_end","k":1}
//   {"e":"trial","id":1}
//   ...
//
// Fields with sentinel defaults are omitted, so encoding is injective per
// event kind and round-trips losslessly (asserted in tests/obs_test.cpp).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace_event.hpp"

namespace timing {

/// One line, no trailing newline.
std::string to_jsonl(const TraceEvent& e);

/// `n` in the header is the process-count bound for the whole file (the
/// max over trials when trials differ, e.g. a group-size sweep).
void write_trace_header(std::ostream& out, int n);
/// `n` > 0 records this trial's own process count (omitted when it
/// matches the header).
void write_trial(std::ostream& out, int trial_id,
                 const std::vector<TraceEvent>& events, int n = 0);

struct TrialTrace {
  int id = 0;
  /// This trial's process count; 0 = inherit the header's n.
  int n = 0;
  std::vector<TraceEvent> events;

  bool operator==(const TrialTrace&) const = default;
};

/// A whole trace file: the header, whose `n` is the largest trial `n`,
/// then the trials as given (collectors fill them in id order), each
/// trial line carrying its own `n` only when it differs from the
/// header's. timing_lab writes every trace file it records through this.
void write_trace(std::ostream& out, const std::vector<TrialTrace>& trials);

struct ParsedTrace {
  int version = 0;
  int n = 0;
  std::vector<TrialTrace> trials;

  bool operator==(const ParsedTrace&) const = default;
};

/// Strict parser; throws std::runtime_error with a line number on any
/// malformed input (missing/duplicate header, unknown event, missing
/// field, out-of-range ids, events before the first trial marker).
/// Blank lines and lines starting with '#' are skipped.
ParsedTrace parse_trace(std::istream& in);

/// Parse a file by path (convenience for trace_tool and tests).
ParsedTrace parse_trace_file(const std::string& path);

}  // namespace timing

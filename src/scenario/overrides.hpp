// The shared scenario CLI grammar: `key=value` overrides over a
// ScenarioSpec plus the common flags. Used by every timing_lab command
// that takes a spec (describe, run, replay), so they all accept the same
// arguments, reject the same garbage, and print the same usage text.
#pragma once

#include <string>

#include "scenario/spec.hpp"

namespace timing::scenario {

struct CliArgs {
  bool csv = false;   ///< emit tables as CSV instead of aligned text
  bool help = false;  ///< --help seen; caller prints usage and exits 0
  std::string error;  ///< non-empty: unknown/invalid argument (usage error)
};

/// Apply one `key=value` override to `spec`: "" on success, otherwise
/// why the value was rejected ("unknown key" for a key no override has).
/// What depends on the rest of the spec (a fault plan against n and the
/// leader, link_models against n) is validate()'s to check.
std::string apply_override(ScenarioSpec& spec, const std::string& key,
                           const std::string& value);

/// Parse argv[first..argc) over `spec`. Recognised flags: --csv, --help
/// (and -h). Everything else must be a `key=value` override; unknown keys
/// or unparsable values set CliArgs::error and leave later args
/// unprocessed. Values are checked (full-string numeric parses), so
/// `runs=abc` is an error, never a silent 0.
CliArgs apply_cli_args(ScenarioSpec& spec, int argc, char** argv, int first);

/// The override grammar, one key per line, for --help output and docs.
std::string override_help();

/// The paper's repetition count unless TIMING_RUNS (>= 1) says otherwise.
/// Raising it appends runs N, N+1, ... — existing runs keep their seeds,
/// so curves only tighten, they don't resample. Invalid values
/// (non-numeric, < 1) and clamped values (> 100000) warn once on stderr
/// instead of silently falling back.
int runs_or_default(int paper_default);

}  // namespace timing::scenario

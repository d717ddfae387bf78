// The scenario CLI, tools/timing_lab: list / describe / run / validate /
// replay over the registry (scenario/registry.hpp). `run` applies the
// shared override grammar (scenario/overrides.hpp) to the entry's
// defaults, honours TIMING_RUNS where the figure sweeps do, and writes
// results JSONL unless `--no-jsonl` is given; its default stdout is what
// the paper-figure goldens under tests/golden/ pin.
#pragma once

namespace timing::scenario {

/// The timing_lab driver: argv[1] selects the subcommand. Returns the
/// process exit code (0 ok, 1 failure, 2 usage error).
int lab_main(int argc, char** argv);

}  // namespace timing::scenario

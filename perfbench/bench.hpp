// perfbench's shared pieces: options, clocks, scenario
// resolution, the in-memory span log of the traced run, and the interface
// each workload implements.
//
// A workload runs the way `timing_lab run <scenario> --no-jsonl` runs it,
// pinned to one pool thread, and checks its own outputs. Its traced run
// calls the layers' public functions on the same seeds, inside spans, and
// proves that it reproduced the untraced outcome.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "scenario/registry.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  /// Checkout root; golden fixtures are read relative to it.
  std::string root = ".";
  /// smr_gate only: the scenario's `corrupt=` self-injury, for the
  /// benchmark's own test that the output check has teeth.
  std::string corrupt;
};

/// CLOCK_MONOTONIC in ns (std::chrono::steady_clock on Linux).
long long now_ns();
/// CPU time of the whole process in ns.
long long cpu_ns();

/// Median of a non-empty sample.
double median(std::vector<double> v);

/// A registry scenario with its spec resolved exactly as
/// `timing_lab run <name> --no-jsonl <overrides>` resolves it.
struct Resolved {
  const timing::scenario::Scenario* scenario = nullptr;
  timing::scenario::ScenarioSpec spec;
};

/// Throws std::runtime_error on an unknown name or a rejected override.
Resolved resolve(const std::string& name,
                 const std::vector<std::string>& overrides);

/// Run the scenario in-process; its tables and prose land in `out`.
/// Returns the scenario's exit code.
int run_scenario(const Resolved& r, bool csv, std::string& out);

/// Outcome of a batch of units of work.
struct Batch {
  long long units = 0;
  long long failed = 0;
};

/// Per-layer metrics of a traced run, by name.
using Metrics = std::map<std::string, double>;

/// Spans kept in memory: name, interval, the span that caused it and the
/// unit of work it served. A span's self time is its duration minus the
/// time its children cover. Leaf work too fine to log one span per call
/// (a sampler's rounds) is added to the open span as timed child work.
class Spans {
 public:
  struct Span {
    const char* name;
    long long start;
    long long end;
    int parent;  ///< index into the log; -1 for a root
    long long unit;
  };

  int open(const char* name, long long unit);
  void close(int id);
  /// `ns` of child work named `name`, already timed, inside the open span.
  void leaf(const char* name, long long ns, long long calls);

  /// Summed duration, self time and call count of the spans named `name`.
  double total_ns(const std::string& name) const;
  double self_ns(const std::string& name) const;
  long long count(const std::string& name) const;

 private:
  struct Totals {
    double total = 0;
    double self = 0;
    long long count = 0;
  };
  Totals totals(const std::string& name) const;

  std::vector<Span> log_;
  std::vector<long long> child_ns_;  ///< per log entry
  std::vector<int> open_;            ///< stack of open span ids
  std::map<std::string, Totals> leaves_;
};

/// RAII span.
class Scope {
 public:
  Scope(Spans& s, const char* name, long long unit)
      : s_(s), id_(s.open(name, unit)) {}
  ~Scope() { s_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& s_;
  int id_;
};

/// Adds common.parallel.speedup_t2/_t4: the median wall time of `slice`
/// at 1 pool thread over that at 2 and 4, from `reps` interleaved rounds.
void thread_speedups(int reps, const std::function<void()>& slice,
                     Metrics& m);

/// Called by a long batch between its steps: perfbench may calibrate
/// there, and the pause is excluded from the batch's times.
using Pause = std::function<void()>;

/// The calibration loop whose slow-downs track a workload's (main.cpp).
enum class Calibration {
  kFloat,  ///< xorshift draws through log/exp, like the latency sampler
  kHeap,   ///< small map and vector allocations, like the engine and SMR
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Untimed warm-up: fills caches and finishes lazy set-up.
  virtual void warm() = 0;
  virtual Calibration calibration() const = 0;
  /// Run batch `i` of the seed's input sequence, checking what is cheap
  /// to check.
  virtual Batch run_batch(long long i, const Pause& pause) = 0;
  /// Output checks too costly to time, over batches [0, done). Returns
  /// the number of units found wrong and names the failure in `why`.
  virtual long long check(long long done, std::string& why) = 0;
  /// The traced run, for about `seconds`: per-layer metrics from spans
  /// around public layer calls on the same seeds as the untraced path.
  /// `outcome` counts the units traced and those whose outcome differed
  /// from the untraced path.
  virtual Metrics traced(int seconds, Batch& outcome) = 0;
};

std::unique_ptr<Workload> make_wan_sweep(const Options& opt);
std::unique_ptr<Workload> make_smr_gate(const Options& opt);
std::unique_ptr<Workload> make_hunt(const Options& opt);

}  // namespace perfbench

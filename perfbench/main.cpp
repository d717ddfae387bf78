// perfbench: the repository's benchmark binary.
//
//   perfbench --workload wan_sweep|smr_gate|hunt --seed N --seconds S
//             --trace 0|1 [--root DIR] [--corrupt stale|lost]
//
// --trace 0 times the workload with one pool thread and prints the
// end-to-end metrics; --trace 1 is the separate traced run that prints the
// per-layer metrics. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. perfbench/run.py builds
// this binary and is the command to run (see BENCHMARK.json).
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#error "perfbench times only an optimized build without sanitizers"
#endif

#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/parallel.hpp"

namespace {

using perfbench::Metrics;
using perfbench::Options;

/// Every per-layer metric, in BENCHMARK.json order. A traced run prints
/// all of them; a layer its workload never reaches reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"sim.latency.ns_per_draw", "ns"},
    {"sim.latency.draws_per_round", "count"},
    {"sim.sampler.self_ns_per_round", "ns"},
    {"sim.fates.late_frac", "fraction"},
    {"sim.fates.lost_frac", "fraction"},
    {"models.predicates.ns_per_round", "ns"},
    {"harness.fused.ns_per_round", "ns"},
    {"harness.tracker.ns_per_round", "ns"},
    {"harness.run.self_ns_per_round", "ns"},
    {"fault.plan.us_per_plan", "us"},
    {"fault.plan.plans_per_unit", "count"},
    {"models.schedule.ns_per_round", "ns"},
    {"models.schedule.rounds_per_unit", "count"},
    {"smr.clients.self_us_per_unit", "us"},
    {"smr.instances_per_unit", "count"},
    {"smr.decided_frac", "fraction"},
    {"smr.ops_per_unit", "count"},
    {"smr.ops_info_frac", "fraction"},
    {"history.build_us_per_unit", "us"},
    {"history.check_us_per_unit", "us"},
    {"adversary.generation_us", "us"},
    {"adversary.evaluate_us", "us"},
    {"adversary.mutate_us", "us"},
    {"adversary.search.self_us_per_unit", "us"},
    {"adversary.signatures", "count"},
    {"adversary.beats_baseline", "fraction"},
    {"fault.chaos.us_per_exec", "us"},
    {"fault.chaos.rounds_per_exec", "count"},
    {"obs.validate.us_per_exec", "us"},
    {"obs.summarize.us_per_exec", "us"},
    {"obs.events_per_exec", "count"},
    {"giraf.engine.self_us_per_exec", "us"},
    {"common.parallel.speedup_t2", "ratio"},
    {"common.parallel.speedup_t4", "ratio"},
    {"bench.trace_overhead_frac", "fraction"},
};

/// Environment knobs that change what the program does mid-measurement
/// (TIMING_TRACE makes smr/linearizable write a full trace) or how many
/// threads and runs it uses.
constexpr const char* kRefusedEnv[] = {"TIMING_TRACE",
                                       "TIMING_TRACE_MAX_EVENTS",
                                       "TIMING_SPANS", "TIMING_RUNS",
                                       "TIMING_THREADS"};

/// Fresh starts per run whose median is setup_s.
constexpr int kSetupProbes = 31;

/// Timed slices are closed after at least this long; each slice's times
/// are scaled by the calibrations taken during it.
constexpr long long kSliceNs = 1000000000LL;

/// Calibrate at least this often, between batches, so the loop sees the
/// machine as the batches it scales saw it.
constexpr long long kCalibrateEveryNs = 200000000LL;

volatile double g_calibration_sink = 0;

/// The calibration loops. Every time the benchmark reports is scaled to a
/// reference core: on a shared host the same single-threaded work costs
/// up to 1.7x more in one minute than in another, and a loop timed next to
/// the work slows with it, provided it loads the same execution units (a
/// neighbour can saturate the floating-point units alone). Each loop is
/// the benchmark's own fixed code and must never change, or every scaled
/// figure shifts. Each takes ~10 ms and returns its time per iteration
/// over the reference core's: 1.0 is reference speed.
double float_loop() {
  constexpr int kIters = 500000;
  constexpr double kReferenceNs = 20.0;
  const long long t0 = perfbench::now_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  double acc = 0;
  for (int i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
    acc += std::log(u + 1e-9) * std::exp(-u);
  }
  g_calibration_sink = acc;
  return static_cast<double>(perfbench::now_ns() - t0) / kIters /
         kReferenceNs;
}

double heap_loop() {
  constexpr int kIters = 14000;
  constexpr double kReferenceNs = 1100.0;
  const long long t0 = perfbench::now_ns();
  std::uint64_t sum = 0;
  for (int i = 0; i < kIters; ++i) {
    std::map<int, std::vector<int>> m;
    for (int j = 0; j < 8; ++j) {
      m[(i + j * 7) % 13].push_back(j);
      const auto v = std::make_unique<std::vector<long>>(j + 3, i);
      sum += static_cast<std::uint64_t>((*v)[static_cast<std::size_t>(j)]);
    }
    sum += m.size();
  }
  g_calibration_sink = static_cast<double>(sum);
  return static_cast<double>(perfbench::now_ns() - t0) / kIters /
         kReferenceNs;
}

void usage() {
  std::cerr << "usage: perfbench --workload wan_sweep|smr_gate|hunt --seed N "
               "--seconds S --trace 0|1 [--root DIR] [--corrupt MODE]\n";
}

bool parse_args(int argc, char** argv, Options& opt, long long& exec_ns) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stoi(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return false;
        opt.trace = v == "1";
      } else if (a == "--root") {
        opt.root = v;
      } else if (a == "--corrupt") {
        opt.corrupt = v;
      } else if (a == "--probe-exec-ns") {
        exec_ns = std::stoll(v);
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !opt.workload.empty() && opt.seconds >= 1;
}

std::unique_ptr<perfbench::Workload> make_workload(const Options& opt) {
  if (opt.workload == "wan_sweep") return perfbench::make_wan_sweep(opt);
  if (opt.workload == "smr_gate") return perfbench::make_smr_gate(opt);
  if (opt.workload == "hunt") return perfbench::make_hunt(opt);
  throw std::runtime_error("unknown workload '" + opt.workload + "'");
}

/// One fresh start: fork, stamp CLOCK_MONOTONIC in the child right before
/// exec, and let the exec'd binary report the time until its first unit
/// of work. Returns ns.
double probe_setup_ns(const Options& opt) {
  std::vector<std::string> args = {
      "perfbench", "--workload", opt.workload, "--seed",
      std::to_string(opt.seed), "--root", opt.root};
  if (!opt.corrupt.empty()) {
    args.push_back("--corrupt");
    args.push_back(opt.corrupt);
  }
  args.push_back("--probe-exec-ns");
  args.push_back(std::string(24, '\0'));  // filled in by the child
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  char* stamp = argv[argv.size() - 2];

  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    // Only async-signal-safe work between fork and exec.
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    unsigned long long v =
        static_cast<unsigned long long>(ts.tv_sec) * 1000000000ULL +
        static_cast<unsigned long long>(ts.tv_nsec);
    char digits[24];
    int len = 0;
    do {
      digits[len++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    for (int k = 0; k < len; ++k) stamp[k] = digits[len - 1 - k];
    stamp[len] = '\0';
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buf[256];
  ssize_t got = 0;
  while ((got = read(fds[0], buf, sizeof buf)) > 0) {
    out.append(buf, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || out.empty()) {
    throw std::runtime_error("setup probe failed");
  }
  return std::stod(out);
}

/// Peak resident set of this process: VmHWM, which exec resets. (The
/// getrusage ru_maxrss of a child carries its parent's peak across exec.)
double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct Printed {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<Printed>& metrics) {
  std::string s = std::string("{\"correct\": ") +
                  (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.12g", metrics[i].value);
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  std::cout << s << std::endl;
}

/// One slice of the timed region: the units, wall and CPU time of its
/// batches (calibrations run between batches, outside them), and the
/// calibrations taken at its edges and every kCalibrateEveryNs inside it.
struct Slice {
  long long units = 0;
  long long wall_ns = 0;
  long long cpu_ns = 0;
  std::vector<double> cal;

  /// Factor that turns this slice's times into reference-core time.
  double to_reference() const {
    double sum = 0;
    for (double c : cal) sum += c;
    return static_cast<double>(cal.size()) / sum;
  }
};

int run_untraced(const Options& opt) {
  std::vector<double> setup;
  for (int k = 0; k < kSetupProbes; ++k) setup.push_back(probe_setup_ns(opt));

  timing::ScopedThreads pin(1);
  const auto w = make_workload(opt);
  w->warm();
  const auto loop = w->calibration() == perfbench::Calibration::kFloat
                        ? float_loop
                        : heap_loop;

  perfbench::Batch total;
  std::vector<Slice> slices(1);
  slices.back().cal.push_back(loop());
  const long long end = perfbench::now_ns() + opt.seconds * 1000000000LL;
  long long slice_start = perfbench::now_ns();
  long long calibrated = slice_start;
  long long paused_wall = 0, paused_cpu = 0;
  const auto calibrate = [&] {
    const long long t = perfbench::now_ns();
    const long long c = perfbench::cpu_ns();
    slices.back().cal.push_back(loop());
    calibrated = perfbench::now_ns();
    paused_wall += calibrated - t;
    paused_cpu += perfbench::cpu_ns() - c;
  };
  const perfbench::Pause pause = [&] {
    if (perfbench::now_ns() - calibrated >= kCalibrateEveryNs) calibrate();
  };
  long long batches = 0;
  for (bool done = false; !done;) {
    paused_wall = paused_cpu = 0;
    const long long t0 = perfbench::now_ns();
    const long long c0 = perfbench::cpu_ns();
    const perfbench::Batch b = w->run_batch(batches++, pause);
    const long long t1 = perfbench::now_ns();
    const long long c1 = perfbench::cpu_ns();
    total.units += b.units;
    total.failed += b.failed;
    Slice& s = slices.back();
    s.units += b.units;
    s.wall_ns += t1 - t0 - paused_wall;
    s.cpu_ns += c1 - c0 - paused_cpu;
    done = t1 >= end;
    const bool full = t1 - slice_start >= kSliceNs;
    if (done || full) {
      calibrate();
    } else {
      pause();
    }
    if (full && !done) {
      const double edge = s.cal.back();
      slices.emplace_back().cal.push_back(edge);
      slice_start = perfbench::now_ns();
    }
  }

  // Units over the timed batches' wall and CPU time, raw and scaled.
  double units = 0, wall = 0, cpu = 0, ref_wall = 0, ref_cpu = 0;
  for (const Slice& s : slices) {
    const double scale = s.to_reference();
    units += static_cast<double>(s.units);
    wall += static_cast<double>(s.wall_ns);
    cpu += static_cast<double>(s.cpu_ns);
    ref_wall += static_cast<double>(s.wall_ns) * scale;
    ref_cpu += static_cast<double>(s.cpu_ns) * scale;
    std::cerr << "slice: " << s.units << " units, "
              << static_cast<double>(s.units) * 1e9 /
                     static_cast<double>(s.wall_ns)
              << " units/s unscaled, x" << scale << "\n";
  }

  std::string why;
  const long long wrong = w->check(batches, why);
  if (wrong > 0 || total.failed > 0) {
    std::cerr << "perfbench: output check failed"
              << (why.empty() ? "" : ": " + why) << "\n";
  }
  std::cerr << "perfbench: unscaled: setup " << perfbench::median(setup) / 1e9
            << " s, " << units * 1e9 / wall << " units/s, "
            << cpu / 1e3 / units << " cpu us/unit\n";
  const long long failed = std::min(total.units, total.failed + wrong);
  print_result(
      failed == 0, total.units, failed,
      {{"setup_s", perfbench::median(setup) / 1e9 * ref_wall / wall, "s"},
       {"units_per_s", units * 1e9 / ref_wall, "1/s"},
       {"cpu_us_per_unit", ref_cpu / 1e3 / units, "us"},
       {"peak_rss_mb", peak_rss_mib(), "MiB"}});
  return 0;
}

int run_traced(const Options& opt) {
  timing::ScopedThreads pin(1);
  const auto w = make_workload(opt);
  w->warm();
  perfbench::Batch outcome;
  const Metrics m = w->traced(opt.seconds, outcome);
  std::vector<Printed> out;
  for (const LayerMetric& lm : kLayerMetrics) {
    const auto it = m.find(lm.name);
    out.push_back({lm.name, it == m.end() ? 0.0 : it->second, lm.unit});
  }
  for (const auto& [name, value] : m) {
    bool known = false;
    for (const LayerMetric& lm : kLayerMetrics) known |= name == lm.name;
    if (!known) throw std::logic_error("unlisted per-layer metric " + name);
  }
  if (outcome.failed > 0) {
    std::cerr << "perfbench: " << outcome.failed << " of " << outcome.units
              << " traced units differ from the untraced path\n";
  }
  print_result(outcome.failed == 0, outcome.units, outcome.failed, out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  long long exec_ns = -1;
  if (!parse_args(argc, argv, opt, exec_ns)) {
    usage();
    return 2;
  }
  for (const char* var : kRefusedEnv) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "perfbench: refusing to run with " << var
                << " set; unset it\n";
      return 2;
    }
  }
  try {
    if (exec_ns >= 0) {
      // Setup probe: stop at the first unit of work.
      timing::ScopedThreads pin(1);
      const auto w = make_workload(opt);
      std::cout << (perfbench::now_ns() - exec_ns) << std::endl;
      return 0;
    }
    return opt.trace ? run_traced(opt) : run_untraced(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

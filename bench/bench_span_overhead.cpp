// Span-tracing cost bench: what the causal span layer (obs/span.hpp)
// costs the live SMR ablation path (SmrGroup over a stable-regime
// schedule — the workload of ablation/smr_cost), in three modes:
//
//   off    - no tracer attached (what everyone pays by default);
//   ids    - causality only, no clock reads (deterministic traces);
//   timed  - monotonic timestamps on every begin/end (profiling mode).
//
// Gates (docs/OBSERVABILITY.md): the off path must stay under 3% — like
// bench_trace_overhead's null-sink contract, the honest bound comes from
// isolating the `spans && spans->enabled()` branch and scaling it to the
// run's emission-site crossings, since a full-run delta at this scale is
// scheduler noise. Timed mode must stay under 10%, measured directly.
// Budgets relax 3x under sanitizers.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <vector>

#include "models/schedule.hpp"
#include "obs/span.hpp"
#include "obs/trace_sink.hpp"
#include "smr/smr.hpp"
#include "smr/state_machine.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TIMING_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TIMING_BENCH_SANITIZED 1
#endif
#endif

using namespace timing;

namespace {

using BenchClock = std::chrono::steady_clock;

// Mid-point of the ablation/smr_cost group-size sweep {4..64}: big
// enough that the O(n^2) per-round consensus work dominates the clock
// and the constant per-round span cost is measured against realistic
// round work, small enough to finish in milliseconds.
constexpr int kN = 16;
constexpr int kCommands = 300;  // consensus instances per configuration
// Best-of to shed scheduler noise. The timed share compares a ~0.5 ms
// span cost with a ~10 ms base, so each mode's minimum has to settle to
// well under 1% of the base; that takes many reps.
constexpr int kReps = 21;
#ifdef TIMING_BENCH_SANITIZED
constexpr double kBudgetScale = 3.0;
#else
constexpr double kBudgetScale = 1.0;
#endif
constexpr double kOffBudgetPct = 3.0 * kBudgetScale;
constexpr double kTimedBudgetPct = 10.0 * kBudgetScale;

double once_ms(const std::function<void()>& body) {
  const auto t0 = BenchClock::now();
  body();
  return std::chrono::duration<double, std::milli>(BenchClock::now() - t0)
      .count();
}

/// Interleaved best-of: round-robin the configurations within each rep
/// so drift and noise hit them all equally, keep each one's best rep.
std::vector<double> interleaved_best_ms(
    const std::vector<std::function<void()>>& bodies) {
  std::vector<double> best(bodies.size(), 1e300);
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t c = 0; c < bodies.size(); ++c) {
      const double ms = once_ms(bodies[c]);
      if (ms < best[c]) best[c] = ms;
    }
  }
  return best;
}

/// The live ablation workload: a stable-leader command sequence, one
/// consensus instance per command, fresh conforming schedule each time.
long long run_sequence(SpanTracer* spans) {
  SmrGroupConfig cfg;
  cfg.n = kN;
  cfg.algorithm = AlgorithmKind::kWlm;
  cfg.leader = 0;
  std::vector<std::unique_ptr<StateMachine>> machines;
  for (int i = 0; i < kN; ++i) {
    machines.push_back(std::make_unique<KvStateMachine>());
  }
  SmrGroup group(cfg, std::move(machines));
  group.set_span_tracer(spans);

  long long checksum = 0;
  for (int c = 0; c < kCommands; ++c) {
    std::vector<Command> proposals;
    for (int i = 0; i < kN; ++i) {
      proposals.push_back(make_kv_command(static_cast<std::uint32_t>(c % 16),
                                          static_cast<std::uint32_t>(c + i)));
    }
    ScheduleConfig sched;
    sched.n = kN;
    sched.model = TimingModel::kWlm;
    sched.leader = 0;
    sched.gsr = 1;  // stable regime: the steady state the paper optimises
    sched.seed = 0xabcdef + static_cast<std::uint64_t>(c);
    ScheduleSampler network(sched);
    const auto r = group.run_instance(proposals, network);
    checksum += r.rounds + (r.decided ? 1 : 0);
  }
  return checksum;
}

}  // namespace

int main() {
  (void)run_sequence(nullptr);  // warm-up: touch every code path once

  long long checksum = 0;  // defeat dead-code elimination
  std::size_t timed_events = 0;
  const std::vector<double> best = interleaved_best_ms({
      [&] { checksum += run_sequence(nullptr); },
      [&] {
        BufferSink sink;
        SpanTracer tracer(&sink, SpanMode::kIds);
        checksum += run_sequence(&tracer);
        checksum += static_cast<long long>(sink.events().size());
      },
      [&] {
        BufferSink sink;
        SpanTracer tracer(&sink, SpanMode::kTimed);
        checksum += run_sequence(&tracer);
        timed_events = sink.events().size();
      },
  });
  const double base_ms = best[0];
  const double ids_ms = best[1];
  const double timed_ms = best[2];
  const auto pct = [&](double ms) {
    return 100.0 * (ms - base_ms) / base_ms;
  };

  std::printf("SMR live path, n=%d, %d instances (best of %d)\n", kN,
              kCommands, kReps);
  std::printf("  %-6s %9.2f ms   baseline\n", "off", base_ms);
  std::printf("  %-6s %9.2f ms   %+6.2f%%\n", "ids", ids_ms, pct(ids_ms));
  std::printf("  %-6s %9.2f ms   %+6.2f%%  (%zu span events)\n", "timed",
              timed_ms, pct(timed_ms), timed_events);

  // The off-path gate. A full-run delta between "no tracer" and "tracer
  // off" is dominated by noise here, so isolate what the off path
  // actually adds — one pointer test plus one mode load per emission
  // site — on a pointer that is null at runtime but not provably null at
  // compile time, then scale the per-site cost to the number of site
  // crossings the timed run demonstrated.
  BufferSink micro_sink;
  SpanTracer micro_tracer(&micro_sink, SpanMode::kTimed);
  SpanTracer* null_tracer =
      std::getenv("TIMING_BENCH_FORCE_SINK") != nullptr ? &micro_tracer
                                                        : nullptr;
  constexpr int kIters = 2'000'000;
  std::uint64_t xa = 0x9e3779b97f4a7c15ull;
  std::uint64_t xb = 0x9e3779b97f4a7c15ull;
  const auto work = [](std::uint64_t& x) {
    for (int s = 0; s < 4; ++s) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  const std::vector<double> micro = interleaved_best_ms({
      [&] {
        for (int i = 0; i < kIters; ++i) {
          checksum += static_cast<long long>(work(xa) >> 60);
        }
      },
      [&] {
        for (int i = 0; i < kIters; ++i) {
          const std::uint64_t w = work(xb);
          if (null_tracer != nullptr && null_tracer->enabled()) {
            checksum += null_tracer->begin(
                make_span_id(span_kind::kRound, w & 0xFF, 0),
                0, span_kind::kRound);
          }
          checksum += static_cast<long long>(w >> 60);
        }
      },
  });
  const double delta_ns = (micro[1] - micro[0]) * 1e6 / kIters;
  const double site_cost_ns = delta_ns > 0.0 ? delta_ns : 0.0;
  // Each recorded span event is one emission-site crossing; scale the
  // branch cost to that count against the baseline run.
  const double off_pct =
      base_ms > 0.0 ? 100.0 * site_cost_ns *
                          static_cast<double>(timed_events) / (base_ms * 1e6)
                    : 0.0;
  std::printf("emission site: %.3f ns per crossing, %zu crossings\n",
              site_cost_ns, timed_events);

  const bool off_ok = off_pct < kOffBudgetPct;
  const bool timed_ok = pct(timed_ms) < kTimedBudgetPct;
  std::printf("off overhead:   %6.2f%% (budget %.0f%%) -> %s\n", off_pct,
              kOffBudgetPct, off_ok ? "OK" : "OVER BUDGET");
  std::printf("timed overhead: %6.2f%% (budget %.0f%%) -> %s   "
              "[checksum %lld]\n",
              pct(timed_ms), kTimedBudgetPct,
              timed_ok ? "OK" : "OVER BUDGET", checksum);
  return off_ok && timed_ok ? 0 : 1;
}

// Tracing-cost bench: quantifies what the observability layer costs the
// measurement hot path, in three configurations of measure_run on a
// fig1-style sweep (WAN-like IID timeliness, all-to-all traffic):
//
//   off      - null sink (the default everyone else pays);
//   count    - CountingSink: the per-event virtual call, no storage;
//   buffer   - BufferSink: what each traced trial records into;
//   jsonl    - BufferSink + serializing every event to JSONL.
//
// The contract asserted by the design (docs/OBSERVABILITY.md): the null
// sink adds < 2% to the untraced baseline — tracing off is free. Also
// reports the JSONL writer's throughput in events/sec.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <vector>

#include "harness/measurement.hpp"
#include "obs/jsonl.hpp"
#include "obs/trace_sink.hpp"
#include "sim/sampler.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TIMING_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TIMING_BENCH_SANITIZED 1
#endif
#endif

using namespace timing;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kN = 8;          // the paper's group size
constexpr int kRounds = 8000;  // long runs so timing dominates setup
constexpr int kReps = 7;       // best-of to shed scheduler noise
constexpr double kP = 0.95;
// The null-sink budget; relaxed under sanitizers, whose shadow-memory
// instrumentation inflates the isolated branch cost far more than the
// surrounding sampling work.
#ifdef TIMING_BENCH_SANITIZED
constexpr double kNullBudgetPct = 6.0;
#else
constexpr double kNullBudgetPct = 2.0;
#endif

double once_ms(const std::function<void()>& body) {
  const auto t0 = Clock::now();
  body();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Interleaved best-of: run the configurations round-robin within each
/// rep so clock drift and scheduler noise hit them all equally, then
/// keep each configuration's best rep.
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

double best_of_ms(const std::function<void()>& body) {
  return interleaved_best_ms({body})[0];
}

RunMeasurement run_once(TraceSink* sink) {
  IidTimelinessSampler sampler(kN, kP, 0xbeef);
  return measure_run(sampler, kRounds, /*leader=*/0, sink);
}

}  // namespace

int main() {
  // Warm-up: touch every code path once.
  (void)run_once(nullptr);

  long long checksum = 0;  // defeat dead-code elimination
  std::size_t events = 0;
  std::string jsonl_bytes;
  const std::vector<double> best = interleaved_best_ms({
      [&] { checksum += run_once(nullptr).messages_timely; },
      [&] {
        CountingSink sink;
        checksum += run_once(&sink).messages_timely;
        events = sink.count();
      },
      [&] {
        BufferSink sink;
        checksum += run_once(&sink).messages_timely;
      },
      [&] {
        BufferSink sink;
        checksum += run_once(&sink).messages_timely;
        std::ostringstream out;
        write_trace_header(out, kN);
        write_trial(out, 0, sink.events());
        jsonl_bytes = out.str();
      },
  });
  const double off_ms = best[0];
  const double count_ms = best[1];
  const double buffer_ms = best[2];
  const double jsonl_ms = best[3];

  const auto pct = [&](double ms) { return 100.0 * (ms - off_ms) / off_ms; };
  std::printf("measure_run, n=%d, %d rounds, p=%.2f (best of %d)\n", kN,
              kRounds, kP, kReps);
  std::printf("  %-7s %9.2f ms   baseline\n", "off", off_ms);
  std::printf("  %-7s %9.2f ms   %+6.2f%%  (%zu events)\n", "count",
              count_ms, pct(count_ms), events);
  std::printf("  %-7s %9.2f ms   %+6.2f%%\n", "buffer", buffer_ms,
              pct(buffer_ms));
  std::printf("  %-7s %9.2f ms   %+6.2f%%  (%.1f MB JSONL)\n", "jsonl",
              jsonl_ms, pct(jsonl_ms),
              static_cast<double>(jsonl_bytes.size()) / 1e6);

  // events/sec of serialization alone (the jsonl - buffer delta is noisy
  // at this scale, so time it directly too).
  BufferSink sink;
  (void)run_once(&sink);
  const double ser_ms = best_of_ms([&] {
    std::ostringstream out;
    write_trace_header(out, kN);
    write_trial(out, 0, sink.events());
    checksum += static_cast<long long>(out.str().size());
  });
  std::printf("JSONL writer: %.2f ms for %zu events = %.2f Mevents/s\n",
              ser_ms, sink.events().size(),
              static_cast<double>(sink.events().size()) / ser_ms / 1e3);

  // The off-path contract: with a null sink each emission site is one
  // test of a pointer the compiler keeps in a register and can hoist
  // across the round's inner loops (exactly what happens in the engine,
  // where trace_ is loop-invariant between opaque compute() calls);
  // TM_TRACE builds the event only behind that test.
  // The `count` row above cannot bound this — a virtual call per event
  // is an order of magnitude dearer than the branch. Isolate the branch
  // instead: two loops with identical per-iteration work (shorter than
  // the few ns of sampling and bookkeeping the run above spends per
  // event; see `work`), one of which adds a TM_TRACE site on a
  // pointer that is null at runtime but not provably null at compile
  // time. Scale the per-iteration delta back to the full run's events.
  TraceSink* null_sink = std::getenv("TIMING_BENCH_FORCE_SINK") != nullptr
                             ? static_cast<TraceSink*>(&sink)
                             : nullptr;
  constexpr int kIters = 2'000'000;
  std::uint64_t xa = 0x9e3779b97f4a7c15ull;
  std::uint64_t xb = 0x9e3779b97f4a7c15ull;
  const auto work = [](std::uint64_t& x) {
    // One xorshift step, a dependency chain of about six cycles. The null
    // test rides along with it, but an event built before the test (some
    // 15 stores) does not fit beside it, so eager construction shows.
    // Longer work here would hide those stores.
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // Both loops run on local copies of their state, written back after
  // the loop: captured by reference, the guarded loop's state could reach
  // the cold record() call, so it would live in main's frame while the
  // plain loop's stays in registers, and the difference would follow the
  // bench's stack layout.
  const std::vector<double> micro = interleaved_best_ms({
      [&] {
        std::uint64_t x = xa;
        long long sum = 0;
        for (int i = 0; i < kIters; ++i) {
          const std::uint64_t w = work(x);
          sum += static_cast<long long>(w >> 60);
        }
        xa = x;
        checksum += sum;
      },
      [&] {
        std::uint64_t x = xb;
        long long sum = 0;
        TraceSink* const sink_or_null = null_sink;
        for (int i = 0; i < kIters; ++i) {
          const std::uint64_t w = work(x);
          TM_TRACE(sink_or_null,
                   TraceEvent::msg(EventKind::kMsgSent, 1, 0,
                                   static_cast<ProcessId>(w & 7u)));
          sum += static_cast<long long>(w >> 60);
        }
        xb = x;
        checksum += sum;
      },
  });
  const double delta_ns = (micro[1] - micro[0]) * 1e6 / kIters;
  const double per_event_ns =
      off_ms * 1e6 / static_cast<double>(events ? events : 1);
  const double null_pct =
      delta_ns > 0.0 ? 100.0 * delta_ns / per_event_ns : 0.0;
  std::printf(
      "emission site: %.3f ns/event on top of %.2f ns/event baseline\n",
      delta_ns > 0.0 ? delta_ns : 0.0, per_event_ns);
  std::printf(
      "null-sink overhead: %.2f%% (branch cost scaled to %zu events; "
      "budget %.0f%%) -> %s   [checksum %lld]\n",
      null_pct, events, kNullBudgetPct,
      null_pct < kNullBudgetPct ? "OK" : "OVER BUDGET", checksum);
  return null_pct < kNullBudgetPct ? 0 : 1;
}

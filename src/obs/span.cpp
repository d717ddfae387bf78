#include "obs/span.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace timing {

const char* to_string(SpanMode m) noexcept {
  switch (m) {
    case SpanMode::kOff: return "off";
    case SpanMode::kIds: return "ids";
    case SpanMode::kTimed: return "timed";
  }
  return "off";
}

bool span_mode_from_string(const char* s, SpanMode& out) noexcept {
  if (s == nullptr) return false;
  if (std::strcmp(s, "off") == 0) { out = SpanMode::kOff; return true; }
  if (std::strcmp(s, "ids") == 0) { out = SpanMode::kIds; return true; }
  if (std::strcmp(s, "timed") == 0) { out = SpanMode::kTimed; return true; }
  return false;
}

SpanMode span_mode_from_env() {
  const char* v = std::getenv("TIMING_SPANS");
  if (v == nullptr || *v == '\0') return SpanMode::kOff;
  SpanMode m = SpanMode::kOff;
  if (!span_mode_from_string(v, m)) {
    static bool warned = false;
    if (!warned) {
      warned = true;
      std::fprintf(stderr,
                   "timing: ignoring invalid TIMING_SPANS=%s "
                   "(want off|ids|timed)\n",
                   v);
    }
    return SpanMode::kOff;
  }
  return m;
}

namespace {
long long steady_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

SpanTracer::SpanTracer(TraceSink* sink, SpanMode mode)
    : sink_(sink), mode_(mode) {
  if (timed()) epoch_ns_ = steady_now_ns();
}

long long SpanTracer::now_ns() const noexcept {
  if (!timed()) return 0;
  return steady_now_ns() - epoch_ns_;
}

long long SpanTracer::begin(std::uint64_t id, std::uint64_t parent,
                            std::uint8_t kind, Round k) {
  if (!enabled()) return 0;
  const long long t = timed() ? now_ns() : -1;
  sink_->record(TraceEvent::span(span_phase::kBegin, id, parent, kind, k, t));
  return t < 0 ? 0 : t;
}

long long SpanTracer::end(std::uint64_t id, std::uint8_t kind, Round k) {
  if (!enabled()) return 0;
  const long long t = timed() ? now_ns() : -1;
  sink_->record(TraceEvent::span(span_phase::kEnd, id, 0, kind, k, t));
  return t < 0 ? 0 : t;
}

void SpanTracer::cause(std::uint64_t id, std::uint64_t cause_id,
                       std::uint8_t kind, Round k) {
  if (!enabled()) return;
  sink_->record(
      TraceEvent::span(span_phase::kCause, id, cause_id, kind, k, -1));
}

int emit_metrics_snapshot(SpanTracer* t, const SpanLatencies& lat,
                          Round seq) {
  if (t == nullptr || !t->timed()) return 0;
  int emitted = 0;
  for (int m = 0; m < kSpanMetricCount; ++m) {
    const LogHistogram& h = lat.metric(m);
    if (h.empty()) continue;
    t->sink()->record(TraceEvent::metrics(
        seq, m, static_cast<long long>(h.count()), h.quantile(0.50),
        h.quantile(0.90), h.quantile(0.99), h.quantile(0.999), h.max()));
    ++emitted;
  }
  return emitted;
}

}  // namespace timing

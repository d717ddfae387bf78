#include "fault/transport.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "net/frame.hpp"

namespace timing::fault {

namespace {

constexpr auto kCrashU8 = static_cast<std::uint8_t>(FaultKind::kCrash);
constexpr auto kPartU8 = static_cast<std::uint8_t>(FaultKind::kPartition);
constexpr auto kDropU8 = static_cast<std::uint8_t>(FaultKind::kDrop);
constexpr auto kDelayU8 = static_cast<std::uint8_t>(FaultKind::kDelay);
constexpr auto kSuppU8 =
    static_cast<std::uint8_t>(FaultKind::kSuppressLeader);

/// Round stamped in an envelope frame; nullopt for probe/garbage frames
/// (which injection leaves alone).
std::optional<std::pair<Round, ProcessId>> envelope_round(const Bytes& bytes) {
  const auto frame = parse_frame(bytes);
  if (!frame || !std::holds_alternative<Envelope>(*frame)) {
    return std::nullopt;
  }
  const Envelope& e = std::get<Envelope>(*frame);
  return std::make_pair(e.round, e.sender);
}

}  // namespace

bool FaultInjectedTransport::send(ProcessId dst, const Bytes& bytes) {
  const auto env = envelope_round(bytes);
  if (!env) return inner_.send(dst, bytes);
  const Round k = env->first;
  const ProcessId self = inner_.self();

  // Drop checks in a fixed order so the emitted reason is deterministic.
  if (injector_.crashed_in(self, k)) {
    TM_TRACE(trace_sink_, TraceEvent::fault(k, kCrashU8, self));
    return true;  // the network ate it
  }
  if (injector_.crashed_in(dst, k)) {
    TM_TRACE(trace_sink_, TraceEvent::fault(k, kCrashU8, dst));
    return true;
  }
  if (injector_.partitioned(self, dst, k)) {
    TM_TRACE(trace_sink_,
             TraceEvent::fault(k, kPartU8, kNoProcess, self, dst));
    return true;
  }
  if (injector_.suppressed(self, k)) {
    TM_TRACE(trace_sink_, TraceEvent::fault(k, kSuppU8, self));
    return true;
  }
  if (injector_.drop_fires(k, self, dst)) {
    TM_TRACE(trace_sink_,
             TraceEvent::fault(k, kDropU8, kNoProcess, self, dst));
    return true;
  }
  return inner_.send(dst, bytes);
}

bool FaultInjectedTransport::pop_due(Clock::time_point now, Bytes& out,
                                     ProcessId& from) {
  auto it = held_.end();
  for (auto i = held_.begin(); i != held_.end(); ++i) {
    if (i->due > now) continue;
    if (it == held_.end() || i->due < it->due) it = i;
  }
  if (it == held_.end()) return false;
  out = std::move(it->bytes);
  from = it->from;
  held_.erase(it);
  return true;
}

bool FaultInjectedTransport::recv(Bytes& out, ProcessId& from,
                                  Clock::time_point deadline) {
  const ProcessId self = inner_.self();
  for (;;) {
    const auto now = Clock::now();
    if (pop_due(now, out, from)) return true;

    // Wake up early if a held packet comes due before the deadline.
    Clock::time_point sub = deadline;
    for (const HeldPacket& h : held_) sub = std::min(sub, h.due);

    Bytes raw;
    ProcessId src = kNoProcess;
    if (!inner_.recv(raw, src, sub)) {
      if (Clock::now() >= deadline) return false;
      continue;  // only the held-packet sub-deadline expired
    }

    const auto env = envelope_round(raw);
    if (!env) {
      out = std::move(raw);
      from = src;
      return true;
    }
    const Round k = env->first;
    // Recipient-side crash isolation: covers senders that are not
    // themselves decorated.
    if (injector_.crashed_in(self, k)) {
      TM_TRACE(trace_sink_, TraceEvent::fault(k, kCrashU8, self));
      continue;
    }
    const double extra_ms = injector_.extra_delay_ms(k, src, self);
    if (extra_ms > 0.0) {
      TM_TRACE(trace_sink_,
               TraceEvent::fault(
                   k, kDelayU8, kNoProcess, src, self,
                   std::max(1, static_cast<int>(std::ceil(extra_ms)))));
      held_.push_back(HeldPacket{
          now + std::chrono::microseconds(
                    static_cast<long long>(extra_ms * 1000.0)),
          src, std::move(raw)});
      continue;
    }
    out = std::move(raw);
    from = src;
    return true;
  }
}

}  // namespace timing::fault

#include "net/ping.hpp"

#include <unordered_map>

#include "net/frame.hpp"

namespace timing {

PingReport measure_peer_rtts(Transport& transport, int n,
                             const PingConfig& cfg) {
  const ProcessId self = transport.self();
  PingReport report;
  report.avg_rtt_ms.assign(static_cast<std::size_t>(n),
                           PingReport::kUnreachableMs);
  report.replies.assign(static_cast<std::size_t>(n), 0);
  std::vector<double> rtt_sum(static_cast<std::size_t>(n), 0.0);
  std::vector<int> sent(static_cast<std::size_t>(n), 0);

  struct Outstanding {
    ProcessId peer;
    Clock::time_point sent_at;
  };
  std::unordered_map<std::uint64_t, Outstanding> outstanding;
  std::uint64_t next_nonce =
      (static_cast<std::uint64_t>(self) << 48) + 1;  // globally unique

  const auto start = Clock::now();
  const auto deadline = start + cfg.total_duration;
  auto next_probe = start;

  Bytes buf;
  for (;;) {
    const auto now = Clock::now();
    if (now >= deadline) break;
    bool all_done = true;
    for (ProcessId j = 0; j < n; ++j) {
      if (j != self && report.replies[j] < cfg.pings_per_peer) {
        all_done = false;
        break;
      }
    }
    if (all_done) break;

    if (now >= next_probe) {
      for (ProcessId j = 0; j < n; ++j) {
        if (j == self || sent[j] >= 4 * cfg.pings_per_peer ||
            report.replies[j] >= cfg.pings_per_peer) {
          continue;
        }
        const std::uint64_t nonce = next_nonce++;
        outstanding[nonce] = Outstanding{j, Clock::now()};
        Bytes out;
        frame_ping(PingFrame{nonce}, out);
        transport.send(j, out);
        ++sent[j];
      }
      next_probe = now + cfg.probe_interval;
    }

    ProcessId from = kNoProcess;
    if (!transport.recv(buf, from, std::min(deadline, next_probe))) continue;
    auto frame = parse_frame(buf);
    if (!frame) {
      // Malformed frame - dropped here, visible through the transport's
      // sink (round 0 = below the round abstraction).
      TM_TRACE(transport.trace_sink(),
               TraceEvent::msg(EventKind::kMsgLost, 0, from, self));
      continue;
    }
    if (const auto* ping = std::get_if<PingFrame>(&*frame)) {
      Bytes out;
      frame_pong(PongFrame{ping->nonce}, out);
      transport.send(from, out);
    } else if (const auto* pong = std::get_if<PongFrame>(&*frame)) {
      auto it = outstanding.find(pong->nonce);
      if (it != outstanding.end() && it->second.peer == from) {
        const double rtt =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      it->second.sent_at)
                .count();
        rtt_sum[from] += rtt;
        ++report.replies[from];
        outstanding.erase(it);
      }
    } else {
      // Envelopes arriving early (a peer already past the ping phase) are
      // dropped here; round synchronization resynchronizes regardless.
      TM_TRACE(transport.trace_sink(),
               TraceEvent::msg(EventKind::kMsgLost, 0, from, self));
    }
  }

  for (ProcessId j = 0; j < n; ++j) {
    if (j == self) {
      report.avg_rtt_ms[j] = 0.0;
    } else if (report.replies[j] > 0) {
      report.avg_rtt_ms[j] = rtt_sum[j] / report.replies[j];
    }
  }
  return report;
}

}  // namespace timing

// Datagram transports.
//
// The paper's experiments exchange UDP datagrams ("Each process sent 100
// UDP messages to all others"). We provide:
//  * InProcHub / InProcTransport - an in-process datagram switch with
//    optional per-message latency injection from a LatencyModel, used to
//    stand in for the LAN/WAN testbeds while exercising the exact same
//    code paths as real sockets;
//  * UdpTransport (udp_transport.hpp) - real UDP sockets on loopback.
//
// Semantics (both transports): unreliable, unordered datagrams; send()
// never blocks; recv() blocks up to a deadline.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/trace_sink.hpp"
#include "sim/latency_model.hpp"

namespace timing {

using Bytes = std::vector<std::uint8_t>;
using Clock = std::chrono::steady_clock;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Fire-and-forget datagram. Returns false only on local failure (the
  /// network may still drop it silently).
  virtual bool send(ProcessId dst, const Bytes& bytes) = 0;

  /// Blocking receive with deadline; returns false on timeout.
  virtual bool recv(Bytes& out, ProcessId& from, Clock::time_point deadline) = 0;

  virtual ProcessId self() const noexcept = 0;

  /// Observe transport-level drops (MsgLost with round 0, since these
  /// happen below the round abstraction). Sink is caller-owned; null
  /// disables. Transports whose drop source is unattributable (e.g. a
  /// stray datagram from an unknown port) report src == self.
  void set_trace_sink(TraceSink* sink) noexcept { trace_sink_ = sink; }
  TraceSink* trace_sink() const noexcept { return trace_sink_; }

 protected:
  TraceSink* trace_sink_ = nullptr;
};

/// Shared switch for InProcTransport endpoints. Thread-safe. If a latency
/// model is installed, each datagram is delayed by a sampled one-way
/// latency (and dropped on a loss sample), turning the hub into a
/// miniature WAN.
class InProcHub {
 public:
  explicit InProcHub(int n);

  /// Install a latency model (hub takes ownership). The model's
  /// begin_round is driven by wall time: we call it once per
  /// `round_ms` of elapsed time so episode processes advance.
  void set_latency_model(std::unique_ptr<LatencyModel> model,
                         double round_ms);

  int n() const noexcept { return n_; }

  /// Returns false when the latency model sampled a loss (the datagram
  /// was dropped at the "wire"); senders may surface that to a sink.
  bool post(ProcessId src, ProcessId dst, const Bytes& bytes);
  bool take(ProcessId dst, Bytes& out, ProcessId& from,
            Clock::time_point deadline);

 private:
  struct Packet {
    Clock::time_point due;
    ProcessId from;
    Bytes bytes;
  };

  void advance_model_locked();

  int n_;
  std::mutex mu_;
  std::vector<std::condition_variable> cv_;
  std::vector<std::deque<Packet>> queues_;  // sorted insert by due time
  std::unique_ptr<LatencyModel> model_;
  double round_ms_ = 0.0;
  Clock::time_point model_epoch_{};
  long long model_round_ = 0;
};

class InProcTransport final : public Transport {
 public:
  InProcTransport(std::shared_ptr<InProcHub> hub, ProcessId self)
      : hub_(std::move(hub)), self_(self) {}

  bool send(ProcessId dst, const Bytes& bytes) override {
    if (!hub_->post(self_, dst, bytes)) {
      // Wire-level loss sampled by the hub's latency model.
      TM_TRACE(trace_sink_, TraceEvent::msg(EventKind::kMsgLost, 0,
                                            self_, dst));
    }
    return true;  // local send succeeded; the "network" ate it
  }
  bool recv(Bytes& out, ProcessId& from, Clock::time_point deadline) override {
    return hub_->take(self_, out, from, deadline);
  }
  ProcessId self() const noexcept override { return self_; }

 private:
  std::shared_ptr<InProcHub> hub_;
  ProcessId self_;
};

}  // namespace timing

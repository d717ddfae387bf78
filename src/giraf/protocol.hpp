// The GIRAF protocol interface (Algorithm 1): a protocol is exactly a pair
// of functions, initialize() and compute(), both fed the oracle output,
// returning the next round's message and its destination set.
#pragma once

#include <cstddef>
#include <memory>

#include "giraf/message.hpp"
#include "obs/trace_sink.hpp"

namespace timing {

/// A destination set D_i, held by value. Algorithm 2's procedure
/// Destinations (lines 9-11) returns Pi to the process that trusts itself
/// as leader and {leader} to every other process; the other protocols
/// here broadcast to Pi, and Paxos sends its phase 1a/2a messages to Pi
/// and everything else to one process. So D_i is always Pi or one
/// process, both a run of consecutive ids, and a send needs no list and
/// no heap. Iterates in ascending id order.
class Destinations {
 public:
  /// The empty set.
  Destinations() = default;
  /// D_i = Pi.
  static Destinations all(int n) noexcept { return Destinations(0, n); }
  /// D_i = {p}.
  static Destinations one(ProcessId p) noexcept {
    return Destinations(p, p + 1);
  }

  class iterator {
   public:
    explicit iterator(ProcessId id) noexcept : id_(id) {}
    ProcessId operator*() const noexcept { return id_; }
    iterator& operator++() noexcept {
      ++id_;
      return *this;
    }
    bool operator==(const iterator&) const = default;

   private:
    ProcessId id_;
  };
  using const_iterator = iterator;

  iterator begin() const noexcept { return iterator(first_); }
  iterator end() const noexcept { return iterator(last_); }
  std::size_t size() const noexcept {
    return static_cast<std::size_t>(last_ - first_);
  }
  bool operator==(const Destinations&) const = default;

 private:
  Destinations(ProcessId first, ProcessId last) noexcept
      : first_(first), last_(last) {}

  ProcessId first_ = 0;  ///< the ids first_ .. last_ - 1
  ProcessId last_ = 0;
};

/// What a protocol returns from initialize()/compute(): the message for
/// the next round and the set D_i of destinations (Algorithm 1).
struct SendSpec {
  Message msg;
  /// Destinations; self may be among them (the engine skips the network
  /// for it - a process always receives its own message).
  Destinations dests;
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Called at the first end-of-round event; returns the round-1 message.
  /// `leader_hint` is the oracle output (Omega's trusted leader for the
  /// leader-based protocols; ignored by ES/AFM protocols).
  virtual SendSpec initialize(ProcessId leader_hint) = 0;

  /// Called at the end of round k with the messages received in round k
  /// (received.size() == n, slot = sender, null = nothing received);
  /// returns the round-(k+1) message. `received` and the messages it
  /// points to live only until compute() returns: keeping one means
  /// copying it.
  virtual SendSpec compute(Round k, RoundMsgs received,
                           ProcessId leader_hint) = 0;

  /// Consensus outputs.
  virtual bool has_decided() const noexcept = 0;
  virtual Value decision() const noexcept = 0;

  /// Introspection used by tests and the Paxos ablation; protocols expose
  /// their current timestamp/estimate where meaningful.
  virtual Timestamp current_ts() const noexcept { return 0; }
  virtual Value current_est() const noexcept { return kNoValue; }

  /// Deep copy of the protocol state, for state-space search (the
  /// exhaustive model-checking tests). Protocols that do not support it
  /// return nullptr (the default). Clones do not inherit the trace sink
  /// (search states are not observed runs).
  virtual std::unique_ptr<Protocol> clone() const { return nullptr; }

  /// Install a trace sink (null disables, the default). Virtual so
  /// wrappers (OmegaElection, LmOverWlm) can forward it to their inner
  /// protocol.
  virtual void set_trace_sink(TraceSink* sink) noexcept {
    trace_sink_ = sink;
  }

 protected:
  /// Decide-path instrumentation: protocols call this exactly where a
  /// decide rule fires (see obs/trace_event.hpp for the rule tags).
  void trace_decide(Round k, ProcessId self, Value v,
                    std::uint8_t rule) const {
    TM_TRACE(trace_sink_, TraceEvent::decide(k, self, v, rule));
  }

  TraceSink* trace_sink_ = nullptr;
};

}  // namespace timing

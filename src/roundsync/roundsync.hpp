// The round-synchronization protocol of Section 5.1, which lets GIRAF run
// over a real network without synchronized clocks.
//
// Per the paper, each node runs two threads:
//  * a RECEIVER thread that records every incoming message into a buffer
//    indexed by the round stamped on it, and notifies the driver whenever
//    a message of a FUTURE round k_j > k_i arrives;
//  * a DRIVER thread that starts each round by sending the protocol's
//    messages, waits out the round's duration (the `timeout` parameter),
//    and then calls compute(). On a future-round notification the current
//    round ends immediately, compute() runs, and the node jumps straight
//    to round k_j, whose duration is set to timeout - L_i[j] (the
//    estimated remaining time of that round at the peers, using the
//    ping-measured one-way latency L_i[j]).
//
// "This algorithm allows a slow node to join its peers already in round
// k_j ... We found that this algorithm achieves very fast synchronization,
// and whenever the synchronization is lost, it is immediately regained."
#pragma once

#include <atomic>
#include <condition_variable>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "giraf/oracle.hpp"
#include "roundsync/adaptive_timeout.hpp"
#include "giraf/protocol.hpp"
#include "net/transport.hpp"
#include "obs/span.hpp"

namespace timing {

struct RoundSyncConfig {
  double timeout_ms = 50.0;  ///< round duration (the experiments' knob)
  int max_rounds = 1000;     ///< hard stop (counted in compute() calls)
  /// This runner's wire rounds are [first_round, end_round). Successive
  /// consensus instances sharing one transport must use disjoint,
  /// increasing ranges: the receiver drops envelopes of earlier rounds
  /// (a lingering DECIDE of instance k) and of rounds at or past
  /// end_round, and the driver never enters them, so a runner lagging in
  /// instance k can never adopt instance k+1's rounds. It stops undecided
  /// or learns its own instance's decision instead. The default end
  /// leaves the range unbounded, for a runner that owns the transport.
  Round first_round = 1;
  Round end_round = std::numeric_limits<Round>::max();
  /// L_i[j]: one-way latency estimates (ms), e.g. from measure_peer_rtts.
  /// Empty means all zero.
  std::vector<double> one_way_ms;
  /// After deciding locally, keep participating for this many more rounds
  /// so peers can observe our DECIDE messages.
  int linger_rounds_after_decide = 6;
  /// Lower bound on any round duration, as a fraction of timeout.
  double min_duration_fraction = 0.1;
  /// Optional online timeout controller (not owned; one per node). When
  /// set, the runner records every in-round message's arrival offset and
  /// re-reads the timeout at each round boundary - the Section 5.3
  /// tuning methodology running live.
  AdaptiveTimeout* adaptive = nullptr;
  /// Optional span tracer (not owned; one per node, driver thread only).
  /// When set, each round becomes a `round` span under `parent_span`,
  /// each outgoing envelope a `msg` child span whose id rides the wire
  /// (Envelope::span), and each arriving envelope a causality edge from
  /// its message span to the round that consumed it.
  SpanTracer* spans = nullptr;
  std::uint64_t parent_span = 0;  ///< e.g. the enclosing instance span
};

struct RoundSyncResult {
  bool decided = false;
  Value decision = kNoValue;
  Round decision_round = -1;
  Round rounds_executed = 0;   ///< number of compute() calls
  Round final_round = 0;       ///< last round number reached (with jumps)
  long long messages_sent = 0;
  long long fast_forwards = 0; ///< future-round jumps taken
  double elapsed_ms = 0.0;
};

class RoundSyncRunner {
 public:
  /// `oracle` may be null (leaderless protocols). The protocol must not
  /// be shared with other runners.
  RoundSyncRunner(Protocol& protocol, Oracle* oracle, Transport& transport,
                  int n, RoundSyncConfig cfg);

  /// Blocks until decision + linger, or max_rounds. Spawns and joins the
  /// receiver thread internally.
  RoundSyncResult run();

 private:
  /// Messages buffered for one round, by sender (copies: the receiver
  /// thread decodes each envelope into its own Message).
  using Row = std::vector<std::optional<Message>>;

  struct Buffered {
    Row row;
    int count = 0;
    /// Wire span ids of the envelopes buffered for this round; drained
    /// by the driver (with the row) and emitted as cause edges there,
    /// keeping all span emission on the driver thread.
    std::vector<std::uint64_t> causes;
  };

  void receiver_loop();
  Row take_row(Round k, std::vector<std::uint64_t>* causes);

  Protocol& protocol_;
  Oracle* oracle_;
  Transport& transport_;
  const int n_;
  RoundSyncConfig cfg_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<Round, Buffered> buffer_;
  Round current_round_ = 0;       ///< what the driver is executing
  Clock::time_point round_start_{};  ///< when the current round began
  Round future_round_ = 0;        ///< highest round seen from a peer
  ProcessId future_sender_ = kNoProcess;
  std::atomic<bool> stop_{false};
};

}  // namespace timing

// The GIRAF round engine: an implementation of Algorithm 1's environment
// for lock-step (synchronized) rounds, which is the setting of the
// paper's analysis (Section 4: "we assume that processes proceed in
// synchronized rounds, although this is not required for correctness").
//
// Each round k:
//   1. every alive process's pending round-k message is dispatched to its
//      destination set D_i \ {i}; the link matrix decides each copy's fate
//      (timely / late by d rounds / lost);
//   2. a timely message lands in its recipient's round-k row as a
//      pointer to the sender's round-k message (no copy); a process's
//      own message always appears in its own row (slot i);
//   3. at end-of-round, each alive process queries the oracle and runs
//      compute(k, row, oracle output), yielding its round-(k+1) message.
//
// Late messages belong to the round stamped on them; by the time they
// arrive that round's computation is over, so they can no longer influence
// the protocol (exactly as in the paper's PlanetLab implementation, where
// a buffered past-round message is never revisited). The engine counts
// them for diagnostics.
#pragma once

#include <memory>
#include <vector>

#include "giraf/oracle.hpp"
#include "giraf/protocol.hpp"
#include "obs/span.hpp"
#include "obs/trace_sink.hpp"
#include "sim/link_matrix.hpp"
#include "sim/sampler.hpp"

namespace timing {

struct EngineStats {
  long long messages_sent = 0;     ///< total point-to-point sends
  long long timely_deliveries = 0;
  /// Messages whose sampled fate was "late", counted at send time (the
  /// trace's view): messages_sent == timely + late_messages + lost.
  long long late_messages = 0;
  /// Of those, the ones that actually arrived before the run ended
  /// (<= late_messages; the rest were still in flight).
  long long late_arrivals = 0;
  long long lost_messages = 0;
};

class RoundEngine {
 public:
  /// `oracle` may be null for protocols that ignore the leader hint (the
  /// hint is then kNoProcess).
  RoundEngine(std::vector<std::unique_ptr<Protocol>> processes,
              std::shared_ptr<Oracle> oracle);

  int n() const noexcept { return static_cast<int>(procs_.size()); }

  /// Schedule a crash: the process executes rounds < at_round only.
  /// Must be called before the process reaches that round.
  void crash_at(ProcessId i, Round at_round);

  /// Execute one round with the given link fates. Returns the round number
  /// just executed (rounds are 1-based). The packed overload reads the bit
  /// plane first and only touches the delay plane for late fates — run()
  /// drives rounds through it.
  Round step(const LinkMatrix& fates);
  Round step(const PackedLinkMatrix& fates);

  /// Drive rounds from the sampler until every alive process has decided
  /// or `max_rounds` have run. Returns the global decision round (the
  /// largest decision round among deciders, per the paper's definition)
  /// or -1 when some alive process never decided. Samples into a single
  /// reused PackedLinkMatrix (identical fates to the scalar path).
  Round run(TimelinessSampler& sampler, int max_rounds);

  Round current_round() const noexcept { return k_; }
  bool alive(ProcessId i) const noexcept;
  bool all_alive_decided() const noexcept;

  const Protocol& process(ProcessId i) const { return *procs_[i]; }
  Protocol& process(ProcessId i) { return *procs_[i]; }

  /// Round in which process i decided; -1 if it has not.
  Round decision_round(ProcessId i) const noexcept { return decision_round_[i]; }
  /// max over deciders, -1 if nobody decided.
  Round global_decision_round() const noexcept;

  const EngineStats& stats() const noexcept { return stats_; }
  /// Messages sent in the most recent round (stable-state message
  /// complexity measurements).
  long long messages_last_round() const noexcept { return msgs_last_round_; }

  /// Fraction of sent messages that were delivered timely; the engine's
  /// own view of the paper's p, cross-checkable against the sampler-side
  /// RunMeasurement::timely_fraction().
  double timely_fraction() const noexcept {
    return stats_.messages_sent
               ? static_cast<double>(stats_.timely_deliveries) /
                     static_cast<double>(stats_.messages_sent)
               : 0.0;
  }

  /// Install a trace sink (null disables). The engine emits
  /// RoundStart/RoundEnd, per-link Msg* fates, per-process OracleOutput
  /// and Crash events; Decide events come from the protocols' own decide
  /// paths, so the sink is forwarded to every process.
  void set_trace_sink(TraceSink* sink) noexcept;

  /// Install a span tracer (null disables). Each subsequent round becomes
  /// a `round` span under `parent` — id make_span_id(kRound, k, ctx) —
  /// bracketing the whole round body (dispatch + compute). `ctx`
  /// distinguishes engines sharing one trace (e.g. consecutive consensus
  /// instances reusing round numbers).
  void set_span_tracer(SpanTracer* spans, std::uint64_t parent = 0,
                       std::uint32_t ctx = 0) noexcept {
    spans_ = spans;
    span_parent_ = parent;
    span_ctx_ = ctx;
  }

 private:
  struct InFlight {
    Round due;           ///< round during which it arrives
    ProcessId dst;
    ProcessId src;
  };

  std::vector<std::unique_ptr<Protocol>> procs_;
  std::shared_ptr<Oracle> oracle_;
  std::vector<SendSpec> sending_;      ///< round-k_ messages
  std::vector<SendSpec> outbox_;       ///< round-(k_+1) messages
  /// Rows of the round in progress, n x n, row-major by recipient:
  /// rows_[d * n + s] points into sending_[s], or is null.
  std::vector<const Message*> rows_;
  std::vector<Round> crash_round_;
  std::vector<Round> decision_round_;
  std::vector<InFlight> in_flight_;
  EngineStats stats_;
  TraceSink* trace_ = nullptr;
  SpanTracer* spans_ = nullptr;
  std::uint64_t span_parent_ = 0;
  std::uint32_t span_ctx_ = 0;
  long long msgs_last_round_ = 0;
  Round k_ = 0;
  bool initialized_ = false;

  void lazy_initialize();
  ProcessId hint(ProcessId i, Round k);
  /// Shared round body; Matrix is LinkMatrix or PackedLinkMatrix (both
  /// expose n() and at(dst, src)).
  template <class Matrix>
  Round step_impl(const Matrix& fates);
};

}  // namespace timing

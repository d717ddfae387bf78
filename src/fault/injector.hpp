// Sim-path fault injection: apply a FaultPlan as edits on each round's
// sampled link matrix, plus the sampler decorator that slots the
// injection between sampling and the round engine / predicate kernels.
//
// The same FaultInjector also answers the per-message queries the live
// backend (fault/transport.hpp) asks — crashed_in / partitioned /
// suppressed / drop_fires / extra_delay_ms — so the two backends cannot
// drift: a drop decision is a pure function of (plan seed, rule index,
// round, src, dst), never of sampling order or thread count.
#pragma once

#include <vector>

#include "fault/plan.hpp"
#include "obs/trace_sink.hpp"
#include "sim/sampler.hpp"

namespace timing::fault {

struct InjectorConfig {
  int n = 0;
  /// Leader targeted by suppress_leader windows.
  ProcessId leader = kNoProcess;
  /// Salt for the counter-based drop coin flips.
  std::uint64_t seed = 0;
  /// Optional: FaultInjected events for every edit actually made.
  TraceSink* sink = nullptr;
};

class FaultInjector {
 public:
  /// The plan must already pass validate(plan, cfg.n, cfg.leader).
  FaultInjector(const FaultPlan& plan, const InjectorConfig& cfg);

  const FaultPlan& plan() const noexcept { return plan_; }
  Round gsr() const noexcept { return plan_.gsr; }

  /// True when round k can carry any injection (cheap pre-check: a
  /// no-fault round is the inner sampler's, untouched).
  bool active_in(Round k) const noexcept;

  /// Edit round k's sampled matrix in place. Deterministic: the same
  /// (plan, config, k) always makes the same edits, in the same order.
  void apply(Round k, LinkMatrix& a);
  void apply(Round k, PackedLinkMatrix& a);

  // --- Per-message queries (shared with the live backend) -------------
  /// p is crash-isolated in round k (between a crash and its recover;
  /// permanent crashes isolate forever, even past gsr — a process that
  /// never recovers is not correct, which every model permits).
  bool crashed_in(ProcessId p, Round k) const noexcept;
  /// src->dst crosses an active partition in round k.
  bool partitioned(ProcessId src, ProcessId dst, Round k) const noexcept;
  /// src's outgoing messages are suppressed in round k (src is the
  /// leader inside a suppress_leader window).
  bool suppressed(ProcessId src, Round k) const noexcept;
  /// Some drop rule's coin comes up lost for this (round, src, dst).
  bool drop_fires(Round k, ProcessId src, ProcessId dst) const noexcept;
  /// Total extra latency delay rules add to src->dst in round k (ms).
  double extra_delay_ms(Round k, ProcessId src, ProcessId dst) const noexcept;

  /// Round the message sent on src->dst in round k is lost or delayed to,
  /// folding all of the above: kLost, or extra rounds of delay (0 = no
  /// edit). Exactly what apply() writes into the matrix cell.
  Delay link_fate(Round k, ProcessId src, ProcessId dst) const noexcept;

 private:
  void emit_transitions(Round k);
  template <class Matrix>
  void apply_impl(Round k, Matrix& a);

  FaultPlan plan_;
  InjectorConfig cfg_;
  /// Crash-isolation windows [from, to) per process (to = kForever for
  /// permanent crashes), precompiled from the event list.
  struct CrashSpan {
    ProcessId proc;
    Round from;
    Round to;
  };
  std::vector<CrashSpan> crash_spans_;
  /// Rounds [first_active_, last_active_) have at least one live edit or
  /// transition event; permanent crashes stay active past the range.
  Round first_active_ = 0;
  Round last_active_ = 0;
  bool has_permanent_ = false;
  Round perm_from_min_ = 0;
};

/// Sampler decorator: inner sample, then injector.apply. A round that
/// carries no injection is the inner sampler's, untouched, so no-fault
/// runs stay byte-identical to the undecorated pipeline.
class FaultInjectedSampler final : public TimelinessSampler {
 public:
  FaultInjectedSampler(TimelinessSampler& inner, FaultInjector& injector)
      : inner_(inner), injector_(injector) {}

  int n() const noexcept override { return inner_.n(); }
  void sample_round(Round k, LinkMatrix& out) override;
  void sample_round(Round k, PackedLinkMatrix& out) override;

 private:
  TimelinessSampler& inner_;
  FaultInjector& injector_;
};

}  // namespace timing::fault

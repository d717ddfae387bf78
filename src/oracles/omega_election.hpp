// An ONLINE Omega implementation layered under any leader-based protocol.
//
// The paper deliberately runs with a designated leader ("implementing a
// leader election algorithm is beyond the scope of this paper") and cites
// stable-election protocols [22, 24, 1] to justify the stable-leader
// assumption. This module supplies that missing piece so the library is
// deployable without an external oracle: a punishment-counter election in
// the style of Aguilera et al., piggybacked on the consensus messages.
//
// Protocol (per process i):
//  * a vector punish[n] of monotone counters, merged pointwise-max with
//    every received message's vector;
//  * the trusted leader is argmin_j (punish[j], j) - lexicographic, so
//    ties break by process id;
//  * when the trusted leader's messages have been missing for 2
//    consecutive rounds, i punishes it (increments its counter) and
//    immediately re-evaluates: one lost message is tolerated.
//
// Stabilization argument: once the network stabilizes, some process g is
// an eventual n-source (the <>WLM premise). Whenever g is trusted by
// everybody, its messages arrive, so punish[g] stops growing. Any
// better-ranked candidate b < g must keep failing to deliver to someone
// who trusts it (otherwise b would be a legitimate leader and the
// election may stabilize on b - also fine); every such failure bumps
// punish[b], so eventually (punish[b], b) > (punish[g], g) for every such
// b, and all processes converge on the same leader forever: exactly
// Omega. The elected leader is then an n-source and majority-destination,
// satisfying <>WLM's premises with respect to the Omega output.
//
// The wrapper forwards rounds unchanged to the inner protocol, passing
// the elected leader as its oracle hint and piggybacking the counters on
// the inner protocol's own messages; in <>WLM's stable state the merge
// information flows through the leader, which is sufficient.
#pragma once

#include <memory>
#include <vector>

#include "giraf/protocol.hpp"

namespace timing {

class OmegaElection final : public Protocol {
 public:
  OmegaElection(ProcessId self, int n, std::unique_ptr<Protocol> inner);

  SendSpec initialize(ProcessId leader_hint) override;
  SendSpec compute(Round k, RoundMsgs received,
                   ProcessId leader_hint) override;

  bool has_decided() const noexcept override { return inner_->has_decided(); }
  Value decision() const noexcept override { return inner_->decision(); }
  Timestamp current_ts() const noexcept override {
    return inner_->current_ts();
  }
  Value current_est() const noexcept override { return inner_->current_est(); }

  /// Tracing covers both layers: the election's OracleOutput events and
  /// the inner protocol's decide events share one sink.
  void set_trace_sink(TraceSink* sink) noexcept override {
    Protocol::set_trace_sink(sink);
    inner_->set_trace_sink(sink);
  }

  /// The leader this process currently trusts (its Omega output).
  ProcessId trusted_leader() const noexcept { return leader_; }
  /// Current punishment counter of process j (test introspection).
  Timestamp punish_count(ProcessId j) const noexcept {
    return punish_[static_cast<std::size_t>(j)];
  }

  std::unique_ptr<Protocol> clone() const override {
    auto inner_copy = inner_->clone();
    if (!inner_copy) return nullptr;
    auto copy =
        std::make_unique<OmegaElection>(self_, n_, std::move(inner_copy));
    copy->punish_ = punish_;
    copy->missed_ = missed_;
    copy->leader_ = leader_;
    return copy;
  }

 private:
  ProcessId recompute_leader() const noexcept;

  const ProcessId self_;
  const int n_;
  std::unique_ptr<Protocol> inner_;
  std::vector<Timestamp> punish_;
  int missed_ = 0;  ///< consecutive rounds without the trusted leader
  ProcessId leader_;
};

}  // namespace timing

#include "oracles/omega_election.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace timing {

namespace {

/// Consecutive silent rounds before the trusted leader is punished.
constexpr int kMissThreshold = 2;

}  // namespace

OmegaElection::OmegaElection(ProcessId self, int n,
                             std::unique_ptr<Protocol> inner)
    : self_(self), n_(n), inner_(std::move(inner)),
      punish_(static_cast<std::size_t>(n), 0), leader_(0) {
  TM_CHECK(inner_ != nullptr, "inner protocol required");
  TM_CHECK(n > 1, "election needs n > 1");
}

ProcessId OmegaElection::recompute_leader() const noexcept {
  ProcessId best = 0;
  for (ProcessId j = 1; j < n_; ++j) {
    if (punish_[static_cast<std::size_t>(j)] <
        punish_[static_cast<std::size_t>(best)]) {
      best = j;
    }
  }
  return best;
}

SendSpec OmegaElection::initialize(ProcessId /*external_hint_ignored*/) {
  leader_ = recompute_leader();
  SendSpec spec = inner_->initialize(leader_);
  spec.msg.punish = punish_;
  return spec;
}

SendSpec OmegaElection::compute(Round k, RoundMsgs received,
                                ProcessId /*external_hint_ignored*/) {
  // Merge counters pointwise-max from everything received.
  for (const auto& m : received) {
    if (!m || m->punish.size() != punish_.size()) continue;
    for (std::size_t j = 0; j < punish_.size(); ++j) {
      punish_[j] = std::max(punish_[j], m->punish[j]);
    }
  }

  // Miss detection against the leader we trusted THIS round (whose
  // message we were expecting).
  if (leader_ != self_) {
    if (received[static_cast<std::size_t>(leader_)] != nullptr) {
      missed_ = 0;
    } else if (++missed_ >= kMissThreshold) {
      ++punish_[static_cast<std::size_t>(leader_)];
      missed_ = 0;
    }
  } else {
    missed_ = 0;
  }

  const ProcessId new_leader = recompute_leader();
  if (new_leader != leader_) {
    leader_ = new_leader;
    missed_ = 0;
  }
  // This is the process's Omega output for round k — exactly what the
  // inner protocol receives as its oracle hint below.
  TM_TRACE(trace_sink_, TraceEvent::oracle(k, self_, leader_));

  SendSpec spec = inner_->compute(k, received, leader_);
  spec.msg.punish = punish_;
  return spec;
}

}  // namespace timing

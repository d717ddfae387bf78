#include "consensus/lm_over_wlm.hpp"

#include <vector>

#include "common/check.hpp"

namespace timing {

LmOverWlmSimulation::LmOverWlmSimulation(ProcessId self, int n,
                                         std::unique_ptr<Protocol> inner)
    : self_(self), n_(n), inner_(std::move(inner)) {
  TM_CHECK(inner_ != nullptr, "inner protocol required");
}

// initialize_WLM (Algorithm 3 lines 2-3): the round-1 (odd) message is the
// inner algorithm's round-1 message, sent to Pi.
SendSpec LmOverWlmSimulation::initialize(ProcessId leader_hint) {
  SendSpec inner_spec = inner_->initialize(leader_hint);
  pending_inner_msg_ = inner_spec.msg;  // kept for our own row bookkeeping
  return SendSpec{inner_spec.msg, Destinations::all(n_)};
}

// compute_WLM (Algorithm 3 lines 4-11).
SendSpec LmOverWlmSimulation::compute(Round k, RoundMsgs received,
                                      ProcessId leader_hint) {
  TM_CHECK(static_cast<int>(received.size()) == n_, "row size mismatch");
  if (k % 2 == 1) {
    // Odd round: forward everything received this round, tagged by
    // original sender (lines 5-6).
    Message relay;
    relay.type = MsgType::kRelay;
    for (ProcessId j = 0; j < n_; ++j) {
      if (received[j]) {
        relay.relay_from.push_back(j);
        relay.relay_msgs.push_back(*received[j]);
      }
    }
    return SendSpec{std::move(relay), Destinations::all(n_)};
  }

  // Even round: reconstruct M_fixed[k/2][*] from the received relays
  // (lines 8-10) and run the inner compute with round number k/2
  // (line 11). The row points into the relays, which outlive the inner
  // compute.
  std::vector<const Message*> fixed(static_cast<std::size_t>(n_), nullptr);
  for (ProcessId j = 0; j < n_; ++j) {
    for (const Message* rel : received) {
      if (!rel || rel->type != MsgType::kRelay) continue;
      bool found = false;
      for (std::size_t idx = 0; idx < rel->relay_from.size(); ++idx) {
        if (rel->relay_from[idx] == j) {
          fixed[j] = &rel->relay_msgs[idx];
          found = true;
          break;
        }
      }
      if (found) break;
    }
  }
  // The inner protocol requires its own message to be present; our own
  // relay always contains it (we received our own round-(k-1) message),
  // but be explicit in case the relay round dropped everything.
  if (!fixed[self_]) fixed[self_] = &pending_inner_msg_;

  inner_round_ = k / 2;
  const bool was_decided = inner_->has_decided();
  SendSpec inner_spec = inner_->compute(inner_round_, fixed, leader_hint);
  if (!was_decided && inner_->has_decided()) {
    // Re-emit the inner decide with the OUTER round number so the trace
    // stays consistent (see the header note).
    trace_decide(k, self_, inner_->decision(), decide_rule::kSimulated);
  }
  pending_inner_msg_ = inner_spec.msg;
  return SendSpec{inner_spec.msg, Destinations::all(n_)};
}

}  // namespace timing

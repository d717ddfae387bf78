#include "consensus/wlm.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace timing {

WlmConsensus::WlmConsensus(ProcessId self, int n, Value proposal)
    : self_(self), n_(n), est_(proposal) {
  TM_CHECK(n > 1, "consensus needs n > 1");
  TM_CHECK(self >= 0 && self < n, "self out of range");
  TM_CHECK(proposal != kNoValue, "proposal must be a real value");
}

// Procedure Destinations(leader_i), lines 9-11: the leader sends to Pi,
// everyone else sends only to its trusted leader. This is what makes the
// stable-state message complexity linear.
Destinations WlmConsensus::destinations(ProcessId leader_hint) const {
  if (leader_hint == self_ || leader_hint == kNoProcess) {
    return Destinations::all(n_);
  }
  return Destinations::one(leader_hint);
}

SendSpec WlmConsensus::make_send(ProcessId leader_hint) const {
  Message m;
  m.type = msg_type_;
  m.est = est_;
  m.ts = ts_;
  m.leader = new_ld_;
  m.maj_approved = maj_approved_;
  return SendSpec{std::move(m), destinations(leader_hint)};
}

// Procedure initialize (lines 12-14).
SendSpec WlmConsensus::initialize(ProcessId leader_hint) {
  prev_ld_ = new_ld_ = leader_hint;
  return make_send(leader_hint);
}

// Procedure compute (lines 15-30).
SendSpec WlmConsensus::compute(Round k, RoundMsgs received,
                               ProcessId leader_hint) {
  TM_CHECK(static_cast<int>(received.size()) == n_, "row size mismatch");
  TM_CHECK(received[self_] != nullptr, "own message must be present");
  if (dec_ == kNoValue) {  // line 16
    // Update variables (lines 18-21).
    prev_ld_ = new_ld_;
    new_ld_ = leader_hint;
    Timestamp max_ts = 0;
    bool any = false;
    for (const auto& m : received) {
      if (!m) continue;
      max_ts = any ? std::max(max_ts, m->ts) : m->ts;
      any = true;
    }
    Value max_est = kNoValue;
    for (const auto& m : received) {
      if (m && m->ts == max_ts) {
        max_est = max_est == kNoValue ? m->est : std::max(max_est, m->est);
      }
    }
    int votes_for_self = 0;
    for (const auto& m : received) {
      if (m && m->leader == self_) ++votes_for_self;
    }
    maj_approved_ = votes_for_self > n_ / 2;  // line 21

    // Round actions (lines 22-29).
    const Message* decide_msg = nullptr;
    for (const auto& m : received) {
      if (m && m->type == MsgType::kDecide) {
        decide_msg = m;
        break;
      }
    }
    int commit_count = 0;
    for (const auto& m : received) {
      if (m && m->type == MsgType::kCommit) ++commit_count;
    }
    const Message& own = *received[self_];

    if (decide_msg != nullptr) {
      // Rule decide-1 (lines 23-24).
      dec_ = est_ = decide_msg->est;
      msg_type_ = MsgType::kDecide;
      trace_decide(k, self_, dec_, decide_rule::kForwarded);
    } else if (commit_count > n_ / 2 && own.type == MsgType::kCommit &&
               own.maj_approved) {
      // Rules decide-2 and decide-3 (lines 25-26): a majority of COMMITs
      // including my own, and my own round-k message carried
      // majApproved = true.
      dec_ = est_;
      msg_type_ = MsgType::kDecide;
      trace_decide(k, self_, dec_, decide_rule::kCommitQuorum);
    } else if (prev_ld_ != kNoProcess && received[prev_ld_] &&
               received[prev_ld_]->maj_approved) {
      // Rule commit (lines 27-28): trust the leader indicated in my own
      // round-k message, provided a majority approved it in round k-1.
      est_ = received[prev_ld_]->est;
      ts_ = k;
      msg_type_ = MsgType::kCommit;
      last_commit_round_ = k;
    } else {
      // line 29: adopt the maximal timestamp/estimate seen this round.
      ts_ = max_ts;
      est_ = max_est;
      msg_type_ = MsgType::kPrepare;
    }
  }
  // line 30: return the next message and the destination set.
  return make_send(leader_hint);
}

}  // namespace timing

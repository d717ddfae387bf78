#include "consensus/paxos.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace timing {

PaxosConsensus::PaxosConsensus(ProcessId self, int n, Value proposal)
    : self_(self), n_(n), proposal_(proposal) {
  TM_CHECK(n > 1, "consensus needs n > 1");
  TM_CHECK(self >= 0 && self < n, "self out of range");
  TM_CHECK(proposal != kNoValue, "proposal must be a real value");
}

SendSpec PaxosConsensus::send_to(Message m, ProcessId dst) const {
  return SendSpec{std::move(m), Destinations::one(dst)};
}

SendSpec PaxosConsensus::broadcast(Message m) const {
  return SendSpec{std::move(m), Destinations::all(n_)};
}

SendSpec PaxosConsensus::initialize(ProcessId leader_hint) {
  // Round 1 carries no protocol content yet; the proposer starts its
  // first ballot at the end of round 1 (it cannot know about competing
  // ballots any earlier anyway).
  Message idle;
  idle.type = MsgType::kPaxosIdle;
  return send_to(std::move(idle),
                 leader_hint == kNoProcess ? self_ : leader_hint);
}

SendSpec PaxosConsensus::start_ballot(Round k) {
  // Smallest ballot above everything seen that is ours (b mod n = self).
  Timestamp b = std::max(max_ballot_seen_, promised_) + 1;
  b += (self_ - (b % n_) + n_) % n_;
  cur_ballot_ = b;
  cur_value_ = kNoValue;
  phase_ = Phase::kAwaitPromises;
  phase_msg_round_ = k + 1;
  ++ballots_started_;
  Message m;
  m.type = MsgType::kPaxosPrepare;
  m.ballot = b;
  return broadcast(std::move(m));
}

SendSpec PaxosConsensus::acceptor_or_idle(ProcessId leader_hint) {
  if (pending_reply_to_ != kNoProcess) {
    Message m = pending_reply_;
    ProcessId to = pending_reply_to_;
    pending_reply_to_ = kNoProcess;
    return send_to(std::move(m), to);
  }
  Message idle;
  idle.type = MsgType::kPaxosIdle;
  return send_to(std::move(idle),
                 leader_hint == kNoProcess ? self_ : leader_hint);
}

SendSpec PaxosConsensus::compute(Round k, RoundMsgs received,
                                 ProcessId leader_hint) {
  TM_CHECK(static_cast<int>(received.size()) == n_, "row size mismatch");
  pending_reply_to_ = kNoProcess;

  // ---- Learning: any DECIDE ends the protocol for us.
  for (const auto& m : received) {
    if (m && m->type == MsgType::kDecide) {
      if (dec_ == kNoValue) {
        trace_decide(k, self_, m->est, decide_rule::kPaxosLearn);
      }
      dec_ = m->est;
    }
  }
  if (dec_ != kNoValue) {
    Message m;
    m.type = MsgType::kDecide;
    m.est = dec_;
    return broadcast(std::move(m));
  }

  // ---- Acceptor: process the strongest ACCEPT and PREPARE of the round.
  const Message* best_prep = nullptr;
  ProcessId best_prep_from = kNoProcess;
  const Message* best_acc = nullptr;
  ProcessId best_acc_from = kNoProcess;
  for (ProcessId j = 0; j < n_; ++j) {
    const auto& m = received[j];
    if (!m) continue;
    max_ballot_seen_ =
        std::max({max_ballot_seen_, m->ballot, m->accepted_ballot});
    if (m->type == MsgType::kPaxosPrepare &&
        (best_prep == nullptr || m->ballot > best_prep->ballot)) {
      best_prep = m;
      best_prep_from = j;
    } else if (m->type == MsgType::kPaxosAccept &&
               (best_acc == nullptr || m->ballot > best_acc->ballot)) {
      best_acc = m;
      best_acc_from = j;
    }
  }
  if (best_acc != nullptr && best_acc->ballot >= promised_) {
    promised_ = best_acc->ballot;
    accepted_ballot_ = best_acc->ballot;
    accepted_value_ = best_acc->est;
    if (best_acc_from != self_) {
      pending_reply_ = Message{};
      pending_reply_.type = MsgType::kPaxosAccepted;
      pending_reply_.ballot = best_acc->ballot;
      pending_reply_to_ = best_acc_from;
    }
  }
  if (best_prep != nullptr) {
    if (best_prep->ballot > promised_) {
      promised_ = best_prep->ballot;
      if (best_prep_from != self_ && pending_reply_to_ == kNoProcess) {
        pending_reply_ = Message{};
        pending_reply_.type = MsgType::kPaxosPromise;
        pending_reply_.ballot = best_prep->ballot;
        pending_reply_.accepted_ballot = accepted_ballot_;
        pending_reply_.accepted_value = accepted_value_;
        pending_reply_to_ = best_prep_from;
      }
    } else if (best_prep_from != self_ && pending_reply_to_ == kNoProcess) {
      pending_reply_ = Message{};
      pending_reply_.type = MsgType::kPaxosNack;
      pending_reply_.ballot = promised_;  // tell the proposer what to beat
      pending_reply_to_ = best_prep_from;
    }
  }

  // ---- Proposer: only while trusted by our own oracle.
  if (leader_hint != self_) {
    phase_ = Phase::kIdle;  // abandon any ballot in flight
    return acceptor_or_idle(leader_hint);
  }

  switch (phase_) {
    case Phase::kIdle:
      return start_ballot(k);

    case Phase::kAwaitPromises: {
      if (k == phase_msg_round_) {
        // Our PREPARE circulated this round; replies come next round.
        return acceptor_or_idle(leader_hint);
      }
      // Tally round: count promises for cur_ballot_, including our own
      // acceptor state; any NACK at or above our ballot aborts. The value
      // is the one accepted under the highest ballot among the promisors
      // (classic Paxos phase-1b rule).
      int count = 0;
      Timestamp best_accepted = 0;
      Value best_value = kNoValue;
      if (promised_ == cur_ballot_) {
        count = 1;
        if (accepted_ballot_ > 0) {
          best_accepted = accepted_ballot_;
          best_value = accepted_value_;
        }
      }
      bool nacked = false;
      for (ProcessId j = 0; j < n_; ++j) {
        const auto& m = received[j];
        if (!m || j == self_) continue;
        if (m->type == MsgType::kPaxosPromise && m->ballot == cur_ballot_) {
          ++count;
          if (m->accepted_ballot > best_accepted &&
              m->accepted_value != kNoValue) {
            best_accepted = m->accepted_ballot;
            best_value = m->accepted_value;
          }
        } else if (m->type == MsgType::kPaxosNack &&
                   m->ballot >= cur_ballot_) {
          nacked = true;
        }
      }
      if (nacked || count < majority_size(n_)) {
        return start_ballot(k);  // the chase: retry with a higher ballot
      }
      cur_value_ = best_value != kNoValue ? best_value : proposal_;
      phase_ = Phase::kAwaitAccepts;
      phase_msg_round_ = k + 1;
      Message m;
      m.type = MsgType::kPaxosAccept;
      m.ballot = cur_ballot_;
      m.est = cur_value_;
      return broadcast(std::move(m));
    }

    case Phase::kAwaitAccepts: {
      if (k == phase_msg_round_) {
        return acceptor_or_idle(leader_hint);
      }
      int count = accepted_ballot_ == cur_ballot_ ? 1 : 0;
      bool nacked = false;
      for (ProcessId j = 0; j < n_; ++j) {
        const auto& m = received[j];
        if (!m || j == self_) continue;
        if (m->type == MsgType::kPaxosAccepted && m->ballot == cur_ballot_) {
          ++count;
        } else if (m->type == MsgType::kPaxosNack &&
                   m->ballot > cur_ballot_) {
          nacked = true;
        }
      }
      if (count >= majority_size(n_)) {
        dec_ = cur_value_;
        trace_decide(k, self_, dec_, decide_rule::kPaxosChosen);
        Message m;
        m.type = MsgType::kDecide;
        m.est = dec_;
        return broadcast(std::move(m));
      }
      // Preempted or the majority never formed: start over with a fresh
      // ballot (nacked only matters for the ballot bookkeeping already
      // folded into max_ballot_seen_).
      (void)nacked;
      return start_ballot(k);
    }
  }
  return acceptor_or_idle(leader_hint);  // unreachable
}

}  // namespace timing

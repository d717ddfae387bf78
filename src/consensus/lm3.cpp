#include "consensus/lm3.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"

namespace timing {

Lm3Consensus::Lm3Consensus(ProcessId self, int n, Value proposal)
    : self_(self), n_(n), est_(proposal) {
  TM_CHECK(n > 1, "consensus needs n > 1");
  TM_CHECK(self >= 0 && self < n, "self out of range");
  TM_CHECK(proposal != kNoValue, "proposal must be a real value");
}

SendSpec Lm3Consensus::make_send() const {
  Message m;
  m.type = msg_type_;
  m.est = est_;
  m.ts = ts_;
  m.leader = new_ld_;
  m.heard_maj = heard_maj_;
  return SendSpec{std::move(m), Destinations::all(n_)};
}

SendSpec Lm3Consensus::initialize(ProcessId leader_hint) {
  new_ld_ = leader_hint;
  return make_send();
}

SendSpec Lm3Consensus::compute(Round k, RoundMsgs received,
                               ProcessId leader_hint) {
  TM_CHECK(static_cast<int>(received.size()) == n_, "row size mismatch");
  TM_CHECK(received[self_] != nullptr, "own message must be present");
  if (dec_ != kNoValue) {
    new_ld_ = leader_hint;
    return make_send();
  }

  const Message& own = *received[self_];

  int heard = 0;
  Timestamp max_ts = 0;
  bool first = true;
  std::vector<int> votes(static_cast<std::size_t>(n_), 0);
  for (const auto& m : received) {
    if (!m) continue;
    ++heard;
    if (first) {
      max_ts = m->ts;
      first = false;
    } else {
      max_ts = std::max(max_ts, m->ts);
    }
    if (m->leader >= 0 && m->leader < n_) ++votes[m->leader];
  }

  // These feed the *next* round's message.
  const bool heard_maj_now = heard > n_ / 2;
  new_ld_ = leader_hint;

  // decide-1.
  for (const auto& m : received) {
    if (m && m->type == MsgType::kDecide) {
      dec_ = est_ = m->est;
      msg_type_ = MsgType::kDecide;
      heard_maj_ = heard_maj_now;
      trace_decide(k, self_, dec_, decide_rule::kForwarded);
      return make_send();
    }
  }

  // decide-2: a majority of fresh commits on my own committed value.
  if (own.type == MsgType::kCommit && own.ts == k - 1) {
    int fresh = 0;
    for (const auto& m : received) {
      if (m && m->type == MsgType::kCommit && m->ts == k - 1 &&
          m->est == own.est) {
        ++fresh;
      }
    }
    if (fresh > n_ / 2) {
      dec_ = est_ = own.est;
      msg_type_ = MsgType::kDecide;
      heard_maj_ = heard_maj_now;
      trace_decide(k, self_, dec_, decide_rule::kCommitQuorum);
      return make_send();
    }
  }

  // commit: the unique majority-named leader's certified estimate.
  ProcessId named = kNoProcess;
  for (ProcessId q = 0; q < n_; ++q) {
    if (votes[q] > n_ / 2) {
      named = q;
      break;  // at most one process can have majority votes
    }
  }
  if (named != kNoProcess && received[named] &&
      received[named]->heard_maj) {
    est_ = received[named]->est;
    ts_ = k;
    msg_type_ = MsgType::kCommit;
    heard_maj_ = heard_maj_now;
    return make_send();
  }

  // prepare.
  Value max_est = kNoValue;
  for (const auto& m : received) {
    if (m && m->ts == max_ts) {
      max_est = max_est == kNoValue ? m->est : std::max(max_est, m->est);
    }
  }
  est_ = max_est;
  ts_ = max_ts;
  msg_type_ = MsgType::kPrepare;
  heard_maj_ = heard_maj_now;
  return make_send();
}

}  // namespace timing

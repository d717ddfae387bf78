#include "consensus/unanimity.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace timing {

UnanimityConsensus::UnanimityConsensus(ProcessId self, int n, Value proposal)
    : self_(self), n_(n), est_(proposal) {
  TM_CHECK(n > 1, "consensus needs n > 1");
  TM_CHECK(self >= 0 && self < n, "self out of range");
  TM_CHECK(proposal != kNoValue, "proposal must be a real value");
}

SendSpec UnanimityConsensus::make_send() const {
  Message m;
  m.type = msg_type_;
  m.est = est_;
  m.ts = ts_;
  return SendSpec{std::move(m), Destinations::all(n_)};
}

SendSpec UnanimityConsensus::initialize(ProcessId) { return make_send(); }

SendSpec UnanimityConsensus::compute(Round k, RoundMsgs received,
                                     ProcessId) {
  TM_CHECK(static_cast<int>(received.size()) == n_, "row size mismatch");
  TM_CHECK(received[self_] != nullptr, "own message must be present");
  if (dec_ != kNoValue) return make_send();

  const Message& own = *received[self_];

  // decide-1.
  for (const auto& m : received) {
    if (m && m->type == MsgType::kDecide) {
      dec_ = est_ = m->est;
      msg_type_ = MsgType::kDecide;
      trace_decide(k, self_, dec_, decide_rule::kForwarded);
      return make_send();
    }
  }

  // decide-2: a majority of fresh commits on my own committed value.
  if (own.type == MsgType::kCommit && own.ts == k - 1) {
    int fresh_commits = 0;
    for (const auto& m : received) {
      if (m && m->type == MsgType::kCommit && m->ts == k - 1 &&
          m->est == own.est) {
        ++fresh_commits;
      }
    }
    if (fresh_commits > n_ / 2) {
      dec_ = est_ = own.est;
      msg_type_ = MsgType::kDecide;
      trace_decide(k, self_, dec_, decide_rule::kCommitQuorum);
      return make_send();
    }
  }

  // commit: unanimity over a majority.
  int heard = 0;
  bool unanimous = true;
  Value v = kNoValue;
  Timestamp max_ts = 0;
  bool first = true;
  for (const auto& m : received) {
    if (!m) continue;
    ++heard;
    if (first) {
      v = m->est;
      max_ts = m->ts;
      first = false;
    } else {
      if (m->est != v) unanimous = false;
      max_ts = std::max(max_ts, m->ts);
    }
  }
  if (heard > n_ / 2 && unanimous) {
    est_ = v;
    ts_ = k;
    msg_type_ = MsgType::kCommit;
    return make_send();
  }

  // prepare: adopt maxEST among maxTS carriers.
  Value max_est = kNoValue;
  for (const auto& m : received) {
    if (m && m->ts == max_ts) {
      max_est = max_est == kNoValue ? m->est : std::max(max_est, m->est);
    }
  }
  est_ = max_est;
  ts_ = max_ts;
  msg_type_ = MsgType::kPrepare;
  return make_send();
}

}  // namespace timing

// An indulgent, oracle-free consensus algorithm used as the library's
// stand-in for the optimal ES algorithm of [14] (3 rounds from GSR) and
// the simplified <>AFM algorithm of [19] (5 rounds from GSR) - the two
// papers' pseudocode is not reproduced in the DSN'07 paper, so we supply
// an algorithm with the same model assumptions and decision bounds
// (DESIGN.md section 4 documents this substitution).
//
// Every process broadcasts <type, est, ts> each round. At end of round k:
//   decide-1: a received DECIDE message decides its estimate.
//   decide-2: if > n/2 received messages are COMMIT(v, ts = k-1),
//             including my own, decide v.
//   commit:   if I received messages from > n/2 processes and ALL of them
//             carry the same estimate v, commit: est <- v, ts <- k.
//   prepare:  otherwise adopt maxEST/maxTS, as in Algorithm 2 line 29.
//
// Safety sketch (checked exhaustively by the property tests):
//  * Same-round commits agree: two committers' unanimous majorities
//    intersect in a process whose single round-k message fixes both
//    values.
//  * Let the first decision be on v at round kd, so a majority S
//    committed (v, kd-1). By induction every commit at a round >= kd-1 is
//    on v: a committer hears > n/2 processes, hence some member of S,
//    whose timestamp is >= kd-1 and whose estimate is v (timestamps are
//    non-decreasing and (est,ts) pairs propagate only via commits, as in
//    the paper's Lemmas 1-4); unanimity then forces the committed value
//    to v. decide-2 needs fresh (ts = k-1) majority commits, whose value
//    is therefore v.
//
// Liveness:
//  * ES: post-GSR all correct processes receive identical rows, so at end
//    of round GSR they adopt identical (maxEST, maxTS); round GSR+1 is
//    unanimous -> everyone commits; round GSR+2 everyone sees a majority
//    of fresh COMMITs -> global decision by GSR+2 (3 rounds).
//  * AFM: maxTS/maxEST information spreads through intersecting
//    majorities; the estimate is meant to stabilise within ~2 rounds of
//    GSR, with the commit+decide tail adding 2 more for [19]'s 5-round
//    figure. That is a sketch, not a proof, and it does not always hold:
//    the plan "partition 0,1,2|3,4 @1..6; gsr @7" at n = 5, leader 0,
//    pre-GSR p = 0.40 and seed 2552169153879729354 decides at GSR+8
//    (DESIGN.md section 7; ROADMAP item 1 tracks the fix).
#pragma once

#include "giraf/protocol.hpp"

namespace timing {

class UnanimityConsensus final : public Protocol {
 public:
  UnanimityConsensus(ProcessId self, int n, Value proposal);

  SendSpec initialize(ProcessId leader_hint) override;
  SendSpec compute(Round k, RoundMsgs received,
                   ProcessId leader_hint) override;

  bool has_decided() const noexcept override { return dec_ != kNoValue; }
  Value decision() const noexcept override { return dec_; }
  Timestamp current_ts() const noexcept override { return ts_; }
  Value current_est() const noexcept override { return est_; }

  std::unique_ptr<Protocol> clone() const override {
    return std::make_unique<UnanimityConsensus>(*this);
  }

 private:
  SendSpec make_send() const;

  const ProcessId self_;
  const int n_;
  Value est_;
  Timestamp ts_ = 0;
  MsgType msg_type_ = MsgType::kPrepare;
  Value dec_ = kNoValue;
};

/// Aliases documenting the roles this algorithm plays in the study.
using Es3Consensus = UnanimityConsensus;
using Afm5Consensus = UnanimityConsensus;

}  // namespace timing

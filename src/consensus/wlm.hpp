// Algorithm 2 - the paper's time- and message-efficient consensus
// algorithm for the <>WLM model (Section 3).
//
// Key properties (proved in Appendix A of the paper and checked by our
// property tests):
//  * indulgent: safety (uniform agreement + validity) holds under fully
//    asynchronous behaviour, arbitrary message loss and arbitrary oracle
//    output;
//  * global decision by round GSR+4 (Theorem 10(a)), or GSR+3 when the
//    Omega requirements already hold from round GSR-1 (Theorem 10(b), the
//    stable-leader common case);
//  * linear stable-state message complexity: once all processes indicate
//    the same leader, non-leaders send only to the leader and the leader
//    sends to everyone (procedure Destinations, lines 9-11), i.e. 2(n-1)
//    messages per round.
//
// The implementation mirrors the paper's pseudocode line by line; comments
// cite the line numbers and rule names (decide-1/2/3, commit).
#pragma once

#include "giraf/protocol.hpp"

namespace timing {

class WlmConsensus final : public Protocol {
 public:
  /// `self` is p_i's identity, `n` the group size, `proposal` prop_i.
  WlmConsensus(ProcessId self, int n, Value proposal);

  SendSpec initialize(ProcessId leader_hint) override;
  SendSpec compute(Round k, RoundMsgs received,
                   ProcessId leader_hint) override;

  bool has_decided() const noexcept override { return dec_ != kNoValue; }
  Value decision() const noexcept override { return dec_; }
  Timestamp current_ts() const noexcept override { return ts_; }
  Value current_est() const noexcept override { return est_; }

  std::unique_ptr<Protocol> clone() const override {
    return std::make_unique<WlmConsensus>(*this);
  }

  /// Round in which this process committed last (for tests); -1 if never.
  Round last_commit_round() const noexcept { return last_commit_round_; }

 private:
  SendSpec make_send(ProcessId leader_hint) const;
  Destinations destinations(ProcessId leader_hint) const;

  const ProcessId self_;
  const int n_;

  // State of Algorithm 2 (lines 1-6).
  Value est_;                     // est_i, initially prop_i
  Timestamp ts_ = 0;              // ts_i
  bool maj_approved_ = false;     // majApproved_i
  ProcessId prev_ld_ = kNoProcess;  // prevLD_i
  ProcessId new_ld_ = kNoProcess;   // newLD_i
  MsgType msg_type_ = MsgType::kPrepare;  // msgType_i
  Value dec_ = kNoValue;          // dec_i (write-once)
  Round last_commit_round_ = -1;
};

}  // namespace timing

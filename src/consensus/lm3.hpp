// A leader-based consensus algorithm for the <>LM model that reaches
// global decision in 3 rounds from GSR - the library's stand-in for the
// optimal <>LM algorithm of [19] (see DESIGN.md section 4).
//
// Like all protocols in [19], it broadcasts every round (Theta(n^2)
// stable-state messages) - this is precisely the message-complexity cost
// that the paper's Algorithm 2 removes.
//
// Message: <type, est, ts, leader, heardMaj> where leader is the sender's
// current Omega output and heardMaj says the sender received messages
// from a majority in the previous round.
//
// End of round k (if not decided):
//   decide-1: on any received DECIDE.
//   decide-2: > n/2 received COMMIT(v, ts=k-1) including my own -> decide.
//   commit:   if some process L is named leader by > n/2 of the round-k
//             messages, and L's own round-k message was received and
//             carries heardMaj = true, adopt L's estimate with ts = k.
//   prepare:  otherwise adopt maxEST/maxTS.
//
// Safety: two same-round commits use the same L (vote majorities
// intersect) and hence the same single message, so they agree; L's
// heardMaj certifies that L's estimate reflects a majority of the
// previous round, which must include a witness of any decided value
// (the same argument as the paper's use of majApproved in Lemma 5).
//
// Liveness in <>LM: from GSR, every correct process receives from a
// majority each round and from the leader (an n-source). Round GSR+1
// messages all name the stable leader L and carry heardMaj; hence at end
// of GSR+1 every correct process commits L's estimate, and at end of
// GSR+2 everyone observes a majority of fresh COMMITs: global decision by
// GSR+2, i.e. 3 rounds.
#pragma once

#include <vector>

#include "giraf/protocol.hpp"

namespace timing {

class Lm3Consensus final : public Protocol {
 public:
  Lm3Consensus(ProcessId self, int n, Value proposal);

  SendSpec initialize(ProcessId leader_hint) override;
  SendSpec compute(Round k, RoundMsgs received,
                   ProcessId leader_hint) override;

  bool has_decided() const noexcept override { return dec_ != kNoValue; }
  Value decision() const noexcept override { return dec_; }
  Timestamp current_ts() const noexcept override { return ts_; }
  Value current_est() const noexcept override { return est_; }

  std::unique_ptr<Protocol> clone() const override {
    return std::make_unique<Lm3Consensus>(*this);
  }

 private:
  SendSpec make_send() const;

  const ProcessId self_;
  const int n_;
  Value est_;
  Timestamp ts_ = 0;
  ProcessId new_ld_ = kNoProcess;
  bool heard_maj_ = false;
  MsgType msg_type_ = MsgType::kPrepare;
  Value dec_ = kNoValue;
  /// compute()'s leader tally, kept so a warm round allocates nothing.
  std::vector<int> votes_;
};

}  // namespace timing

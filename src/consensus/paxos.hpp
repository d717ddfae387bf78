// Single-decree Paxos [21], cast into GIRAF rounds - the library's
// baseline protocol.
//
// Why it is here: the <>WLM model "satisfies the progress requirements of
// the well-known Paxos protocol", but, as [13] observed and the paper's
// Section 3 recounts, Paxos may need a LINEAR number of rounds after GSR
// in <>WLM: the leader discovers higher promised ballots one at a time
// (each mobile majority can reveal just one new NACK) and restarts its
// ballot each time. Algorithm 2 avoids the chase by using round numbers
// as timestamps and the majApproved certificate. `timing_lab run
// ablation/paxos_recovery` measures exactly this contrast.
//
// Mapping to rounds (lock-step): each protocol phase costs two rounds -
// one for the leader's message to circulate, one for the acceptors'
// replies. A clean ballot therefore runs PREPARE (2 rounds), ACCEPT
// (2 rounds), DECIDE broadcast (1 round): global decision in 5 stable
// rounds with an uncontended ballot, matching Algorithm 2's constant -
// the difference shows only under contention/recovery.
//
// Roles: every process is an acceptor; the Omega leader acts as the
// proposer. Ballots are made proposer-unique by the classic b mod n = i
// scheme. A new ballot is chosen as the smallest valid number above every
// ballot the proposer has seen (promised or NACKed) - the "chasing" rule.
#pragma once

#include "giraf/protocol.hpp"

namespace timing {

class PaxosConsensus final : public Protocol {
 public:
  PaxosConsensus(ProcessId self, int n, Value proposal);

  SendSpec initialize(ProcessId leader_hint) override;
  SendSpec compute(Round k, RoundMsgs received,
                   ProcessId leader_hint) override;

  bool has_decided() const noexcept override { return dec_ != kNoValue; }
  Value decision() const noexcept override { return dec_; }
  Timestamp current_ts() const noexcept override { return accepted_ballot_; }
  Value current_est() const noexcept override {
    return accepted_value_ != kNoValue ? accepted_value_ : proposal_;
  }

  std::unique_ptr<Protocol> clone() const override {
    return std::make_unique<PaxosConsensus>(*this);
  }

  /// Acceptor-state introspection (used by the adversarial schedule in
  /// the recovery ablation, and by tests).
  Timestamp promised() const noexcept { return promised_; }
  Timestamp accepted_ballot() const noexcept { return accepted_ballot_; }
  /// Pre-seed the acceptor's promise, emulating a pre-GSR history in
  /// which competing proposers reached this acceptor. Only valid before
  /// the first round.
  void seed_promise(Timestamp ballot) noexcept { promised_ = ballot; }
  /// Number of ballots this proposer has started (the chase length).
  int ballots_started() const noexcept { return ballots_started_; }

 private:
  enum class Phase { kIdle, kAwaitPromises, kAwaitAccepts };

  SendSpec acceptor_or_idle(ProcessId leader_hint);
  SendSpec start_ballot(Round k);
  SendSpec send_to(Message m, ProcessId dst) const;
  SendSpec broadcast(Message m) const;

  const ProcessId self_;
  const int n_;
  const Value proposal_;

  // Acceptor state.
  Timestamp promised_ = 0;
  Timestamp accepted_ballot_ = 0;
  Value accepted_value_ = kNoValue;

  // Proposer state.
  Phase phase_ = Phase::kIdle;
  Timestamp cur_ballot_ = 0;
  Value cur_value_ = kNoValue;
  Round phase_msg_round_ = -1;  ///< round in which our phase message circulates
  Timestamp max_ballot_seen_ = 0;
  int ballots_started_ = 0;

  // Pending acceptor reply (computed while scanning the row).
  Message pending_reply_;
  ProcessId pending_reply_to_ = kNoProcess;

  Value dec_ = kNoValue;
};

}  // namespace timing

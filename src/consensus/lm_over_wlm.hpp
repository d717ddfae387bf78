// Algorithm 3 (Appendix B): simulating the <>LM model inside <>WLM, and
// running a <>LM consensus algorithm on top.
//
// Odd <>WLM rounds: every process forwards the full set of messages it
// received in the current round (as an array indexed by original sender)
// to everybody. Even rounds: reconstruct the inner round's messages from
// any relayer's copy and invoke the inner algorithm's compute() with the
// inner round number k/2. One inner (<>LM) round therefore costs two
// outer (<>WLM) rounds, and by Lemma 12 the simulation is alpha-reducible
// with alpha(l) = 2l + 2: the 3-round <>LM algorithm reaches global
// decision within 7 <>WLM rounds of GSR. This is the "simulated <>WLM"
// curve of Figure 1(a)/(b), the alternative the paper's direct Algorithm 2
// beats.
//
// The wrapper is generic in the inner protocol; the library instantiates
// it with Lm3Consensus.
#pragma once

#include <memory>

#include "giraf/protocol.hpp"

namespace timing {

class LmOverWlmSimulation final : public Protocol {
 public:
  /// Takes ownership of the inner <>LM protocol instance.
  LmOverWlmSimulation(ProcessId self, int n, std::unique_ptr<Protocol> inner);

  SendSpec initialize(ProcessId leader_hint) override;
  SendSpec compute(Round k, RoundMsgs received,
                   ProcessId leader_hint) override;

  bool has_decided() const noexcept override { return inner_->has_decided(); }
  Value decision() const noexcept override { return inner_->decision(); }
  Timestamp current_ts() const noexcept override { return inner_->current_ts(); }
  Value current_est() const noexcept override { return inner_->current_est(); }

  /// Inner rounds completed so far (test introspection).
  Round inner_rounds() const noexcept { return inner_round_; }

  // NOTE: the sink is deliberately NOT forwarded to the inner protocol.
  // The inner algorithm runs with simulated round numbers (k/2), so its
  // decide events would carry rounds inconsistent with the outer trace;
  // the wrapper re-emits decides itself with the outer round (see
  // compute()).

  std::unique_ptr<Protocol> clone() const override {
    auto inner_copy = inner_->clone();
    if (!inner_copy) return nullptr;
    auto copy = std::make_unique<LmOverWlmSimulation>(self_, n_,
                                                      std::move(inner_copy));
    copy->pending_inner_msg_ = pending_inner_msg_;
    copy->inner_round_ = inner_round_;
    return copy;
  }

 private:
  const ProcessId self_;
  const int n_;
  std::unique_ptr<Protocol> inner_;
  Message pending_inner_msg_;  ///< inner round message awaiting an odd round
  Round inner_round_ = 0;
};

}  // namespace timing

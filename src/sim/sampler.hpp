// Timeliness samplers: produce the per-round link matrix A consumed by the
// round engine and by the model predicates.
//
// Two families:
//  * LatencyTimelinessSampler - wraps a LatencyModel and a timeout; a
//    message is timely iff its sampled latency is within the timeout
//    (the paper: "a message is considered to arrive in a communication
//    round if its latency is less than the timeout").
//  * Schedule-based samplers live in src/models (they need the model
//    definitions to construct conforming/adversarial rounds).
//
// Every sampler also fills the packed bit-plane representation
// (PackedLinkMatrix); the two concrete samplers here additionally provide
// the fused sample-and-evaluate kernel: one pass that draws the round's
// fates AND computes the four-model predicate bitmask, without touching
// the int16 delay plane unless a late/lost fate is actually drawn. The
// fused path consumes the RNG in exactly the per-cell order of the scalar
// sample_round, so for the same sub-stream it reproduces the exact same
// matrices (asserted by tests/predicate_kernel_test.cpp).
//
// The latency sampler is two steps: draw_latency_round fills a round's
// latency plane, then classify_round turns it into fates and the
// predicate mask. The second step is pure in the plane, so a timeout
// sweep draws each round once and classifies it against every timeout
// (harness/measurement.hpp's measure_run_sweep).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "sim/latency_model.hpp"
#include "sim/link_matrix.hpp"
#include "sim/packed_eval.hpp"

namespace timing {

/// Result of one fused sample-and-evaluate round: the packed predicate
/// bitmask (kPackedEsBit.. order, equal to models/evaluate_all) plus the
/// off-diagonal message-fate tallies of the round.
struct FusedRoundEval {
  std::uint8_t mask = 0;
  long long timely = 0;
  long long late = 0;
  long long lost = 0;
};

class TimelinessSampler {
 public:
  virtual ~TimelinessSampler() = default;
  virtual int n() const noexcept = 0;
  /// Fill `out` (resized by caller to n x n) with the fates of the round-k
  /// messages. Must be called with strictly increasing k.
  virtual void sample_round(Round k, LinkMatrix& out) = 0;

  /// Packed-plane variant. The default samples into a per-thread scratch
  /// LinkMatrix and packs it (same RNG consumption, so same fates); the
  /// concrete samplers below fill the bit plane directly.
  virtual void sample_round(Round k, PackedLinkMatrix& out);

  /// Fused kernel: one pass that samples round k into `out` AND evaluates
  /// the four failure-free model predicates for `leader`, tallying the
  /// message fates. Default = packed sample_round + packed_evaluate_mask
  /// + a complement scan for the tallies; IID and latency samplers fuse
  /// the evaluation into the sampling loop itself. `cols` is reusable
  /// scratch (see ColumnDeficits).
  virtual FusedRoundEval sample_round_and_evaluate(Round k, ProcessId leader,
                                                   PackedLinkMatrix& out,
                                                   ColumnDeficits& cols);
};

/// Off-diagonal fate tallies of an already-sampled packed round: timely
/// from popcounts, late/lost from the (rare) complement bits.
void tally_fates(const PackedLinkMatrix& a, FusedRoundEval& eval);

/// Observer invoked for every sampled latency; used by the harness to
/// measure p (the fraction of timely messages) alongside the matrices.
using LatencySink =
    std::function<void(ProcessId src, ProcessId dst, double ms)>;

/// Rounds a straggler may stay in flight before it counts as lost (keeps
/// engine queues bounded).
inline constexpr int kDefaultMaxDelayRounds = 64;

/// Begins round k of `model` and draws its n(n-1) message latencies into
/// `latency` (resized to n x n, row dst, column src) in (dst, src) order,
/// the order every latency sampler path consumes the model's RNG in. The
/// diagonal is 0 and not drawn.
void draw_latency_round(LatencyModel& model, Round k,
                        std::vector<double>& latency);

/// Classifies one drawn round against `timeout_ms`: a latency within the
/// timeout is timely, +inf or more than `max_delay_rounds` rounds late is
/// lost, anything else is floor(latency / timeout) rounds late. Fills
/// `out` (n x n, n = out.n(); `latency` holds n * n entries), tallies the
/// off-diagonal fates and evaluates the four failure-free predicates for
/// `leader`, exactly like a fused sample_round_and_evaluate. Reads nothing
/// but its arguments, so one latency plane can be classified against any
/// number of timeouts.
FusedRoundEval classify_round(std::span<const double> latency,
                              double timeout_ms, int max_delay_rounds,
                              ProcessId leader, PackedLinkMatrix& out,
                              ColumnDeficits& cols);

class LatencyTimelinessSampler final : public TimelinessSampler {
 public:
  LatencyTimelinessSampler(LatencyModel& model, double timeout_ms,
                           int max_delay_rounds = kDefaultMaxDelayRounds);

  int n() const noexcept override { return model_.n(); }
  void sample_round(Round k, LinkMatrix& out) override;
  void sample_round(Round k, PackedLinkMatrix& out) override;
  FusedRoundEval sample_round_and_evaluate(Round k, ProcessId leader,
                                           PackedLinkMatrix& out,
                                           ColumnDeficits& cols) override;

  void set_latency_sink(LatencySink sink) { sink_ = std::move(sink); }
  double timeout_ms() const noexcept { return timeout_ms_; }

 private:
  /// draw_latency_round into latency_, then feed the sink (if any).
  void draw(Round k);

  LatencyModel& model_;
  double timeout_ms_;
  int max_delay_rounds_;
  LatencySink sink_;
  std::vector<double> latency_;  ///< the current round's latency plane
  ColumnDeficits cols_;          ///< reused by the packed sample_round
};

/// Direct Bernoulli sampler: entry timely with probability p, otherwise
/// late by a geometric number of rounds or lost. This is the Section 4
/// IID world without the latency detour.
class IidTimelinessSampler final : public TimelinessSampler {
 public:
  IidTimelinessSampler(int n, double p, std::uint64_t seed,
                       double loss_share = 0.25);

  int n() const noexcept override { return n_; }
  void sample_round(Round k, LinkMatrix& out) override;
  void sample_round(Round k, PackedLinkMatrix& out) override;
  FusedRoundEval sample_round_and_evaluate(Round k, ProcessId leader,
                                           PackedLinkMatrix& out,
                                           ColumnDeficits& cols) override;

 private:
  /// Late-or-lost fate draw shared by all three entry points (keeps the
  /// RNG consumption identical across them).
  Delay untimely_fate();

  int n_;
  double p_;
  double loss_share_;
  Rng rng_;
};

}  // namespace timing

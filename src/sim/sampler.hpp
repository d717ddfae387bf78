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
// (PackedLinkMatrix). The packed path consumes the RNG in exactly the
// per-cell order of the scalar sample_round, so for the same sub-stream
// it reproduces the exact same matrices (asserted by
// tests/predicate_kernel_test.cpp). The IID and schedule samplers draw it
// with one FateWalk (below): each cell's fate goes into the delay plane
// with no branch on the draws, then the timely cells get their bits; the
// latency sampler writes the delay plane only for a late or lost cell.
// sample_round_and_evaluate is that packed sample followed by the
// predicate kernel of sim/packed_eval.hpp.
//
// The latency sampler is two steps: draw_latency_round fills a round's
// latency plane, then classify_round turns it into fates for one timeout.
// A timeout sweep draws each round once and ranks it instead: the model's
// draw_ranked_round gives every link the first sorted timeout at which it
// is timely (and the first at which it is no longer lost), and rank_round
// gives every model the first at which it holds. A longer timeout only
// adds timely links, and every predicate only gains from a timely link,
// so one pass answers every timeout of the sweep
// (harness/measurement.hpp's measure_run_sweep). The WAN model ranks most
// links from a bound on their Box-Muller deviate without evaluating the
// latency (sim/latency_model.hpp). Both steps decide the lost edge with
// the same expression (lost_in_flight).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "sim/latency_model.hpp"
#include "sim/link_matrix.hpp"
#include "sim/packed_eval.hpp"

namespace timing {

/// Result of one sample-and-evaluate round: the packed predicate bitmask
/// (kPackedEsBit.. order, equal to models/evaluate_all) plus the
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

  /// Packed-plane variant: fills the bit plane of `out` (n x n) directly
  /// and the delay plane wherever a bit is 0 (late or lost cells).
  /// It consumes the RNG exactly as the scalar overload does, so both give
  /// the same fates; the scalar one is the reference tests compare with.
  virtual void sample_round(Round k, PackedLinkMatrix& out) = 0;

  /// Samples round k into `out` (packed sample_round), evaluates the four
  /// failure-free model predicates for `leader` with the kernel over the
  /// all-sync planes, and tallies the message fates (tally_fates). `cols`
  /// is reusable scratch (see ColumnDeficits).
  virtual FusedRoundEval sample_round_and_evaluate(Round k, ProcessId leader,
                                                   PackedLinkMatrix& out,
                                                   ColumnDeficits& cols);
};

/// Off-diagonal fate tallies of an already-sampled packed round: timely
/// from popcounts, late/lost from the (rare) complement bits.
void tally_fates(const PackedLinkMatrix& a, FusedRoundEval& eval);

/// The direct fate draw of the IID and schedule samplers, per message:
/// timely with probability p; else lost with probability `loss`; else
/// late by d rounds, where d starts at 1 and grows by one for each
/// further draw below `late` while d < kCap (the draw at d = kCap is
/// still taken). fill() is the packed path: a walk with one RNG draw per
/// step and no branch on the draws. Each draw is compared with all three
/// Rng::bernoulli_threshold values, and a table indexed by the walk's
/// state and those three bits gives the next state and, when the draw
/// completes a cell, its fate. The walk consumes the stream exactly as
/// the scalar per-cell loop
///   bernoulli(p) ? 0 : bernoulli(loss) ? kLost : <late draws>
/// does in (dst, src) order, so both give the same fates and leave the
/// generator in the same state. Instantiated for the two caps in use:
/// ScheduleSampler's 8 and IidTimelinessSampler's 16.
template <int kCap>
class FateWalk {
 public:
  FateWalk(double p, double loss, double late);

  /// Draws every off-diagonal cell of `out` from `rng`: writes each
  /// cell's fate into the delay plane, then sets the bits of the timely
  /// cells and of the diagonal. Allocates nothing once the plane exists.
  void fill(Rng& rng, PackedLinkMatrix& out) const;

 private:
  /// The outcome of one draw in one state.
  struct Step {
    std::uint8_t next;  ///< 8 * the next state
    std::uint8_t done;  ///< 1 iff this draw completes the cell
    Delay fate;         ///< the completed cell's fate
  };
  static_assert(8 * (kCap + 1) <= 255, "Step::next must hold 8 * state");
  /// The transition table, built at compile time. States: 0 timely?,
  /// 1 lost?, 1 + d late by d (1 <= d <= kCap). Entry 8 * state + below,
  /// where bit 0 of `below` says the draw is below timely_, bit 1 below
  /// lost_ and bit 2 below later_.
  static const std::array<Step, 8 * (kCap + 2)> kSteps;

  std::uint64_t timely_;  ///< thresholds of p, loss and late
  std::uint64_t lost_;
  std::uint64_t later_;
};

extern template class FateWalk<8>;
extern template class FateWalk<16>;

/// Classifies one drawn round against `timeout_ms`: a latency within the
/// timeout is timely, +inf or more than kMaxDelayRounds rounds late is
/// lost, anything else is floor(latency / timeout) rounds late. Fills
/// `out` (n x n, n = out.n(); `latency` holds n * n entries) and returns
/// the off-diagonal fate tallies (mask 0). Reads nothing but its
/// arguments, so one latency plane can be classified against any number
/// of timeouts.
FusedRoundEval classify_round(std::span<const double> latency,
                              double timeout_ms, PackedLinkMatrix& out);

/// One round ranked against m sorted distinct timeouts t_0 < ... <
/// t_{m-1}. Each entry is a threshold: the first sorted index at which the
/// model holds (or every link of the class is timely), m if none does.
struct RoundRanks {
  /// Per model, in the kPackedEsBit.. bit order.
  std::array<int, 4> model{};
  /// Per link class (GranularPlanes indices).
  std::array<int, GranularPlanes::kNumClasses> cls{};

  /// The predicate mask packed_evaluate_granular gives at sorted timeout i.
  std::uint8_t sat_at(int i) const noexcept {
    std::uint8_t mask = 0;
    for (std::size_t b = 0; b < model.size(); ++b) {
      if (model[b] <= i) mask |= static_cast<std::uint8_t>(1u << b);
    }
    return mask;
  }
  /// The per-class conformance bits at sorted timeout i.
  std::uint8_t csat_at(int i) const noexcept {
    std::uint8_t mask = 0;
    for (std::size_t c = 0; c < cls.size(); ++c) {
      if (cls[c] <= i) mask |= static_cast<std::uint8_t>(1u << c);
    }
    return mask;
  }
};

/// Message-fate histograms of ranked rounds (off-diagonal links only).
/// Bin r of `timely` counts messages first timely at sorted timeout r; bin
/// r of `lost` counts messages first not lost at r. Bin m holds the
/// messages that never are.
struct RankTallies {
  std::vector<long long> timely;
  std::vector<long long> lost;

  /// m + 1 empty bins each.
  void reset(int m);
  /// The fate tallies at every sorted timeout, by prefix sums (mask 0).
  std::vector<FusedRoundEval> fates() const;
};

/// Reusable scratch of rank_round: the latency overload's rank plane, the
/// links a round ranks one by one, and per-line order-statistic buffers.
struct RankScratch {
  std::vector<LinkRank> links;
  std::vector<std::array<ProcessId, 2>> later;
  std::vector<int> line;
  std::vector<int> row_max;
  std::vector<int> row_nonzero;
  std::vector<int> col_max;
  std::vector<int> col_nonzero;
};

/// Ranks one round given its links' ranks against m sorted distinct
/// timeouts (an n x n plane, row dst, column src, as
/// LatencyModel::draw_ranked_round fills it; self links {0, 0}). Per
/// `classes`, async links carry no obligation and count toward no quorum,
/// and a row or column with fewer than a majority of required links never
/// holds; the homogeneous models are the all-sync case. Adds the round's
/// fates to `tallies` (sized by reset(m)). At any sorted index i,
/// sat_at(i), csat_at(i) and the tallies equal classify_round at t_i
/// followed by packed_evaluate_granular.
RoundRanks rank_round(std::span<const LinkRank> ranks, int n, int m,
                      ProcessId leader, const GranularPlanes& classes,
                      RankScratch& scratch, RankTallies& tallies);

/// The same for a drawn round (n x n latency plane, as draw_latency_round
/// fills it): ranks each link (rank_latencies), then the overload above.
RoundRanks rank_round(std::span<const double> latency, int n,
                      std::span<const double> sorted_timeouts,
                      ProcessId leader, const GranularPlanes& classes,
                      RankScratch& scratch, RankTallies& tallies);

class LatencyTimelinessSampler final : public TimelinessSampler {
 public:
  LatencyTimelinessSampler(LatencyModel& model, double timeout_ms);

  int n() const noexcept override { return model_.n(); }
  void sample_round(Round k, LinkMatrix& out) override;
  void sample_round(Round k, PackedLinkMatrix& out) override;

 private:
  LatencyModel& model_;
  double timeout_ms_;
  std::vector<double> latency_;  ///< the current round's latency plane
};

/// Direct Bernoulli sampler: entry timely with probability p, otherwise
/// lost (a quarter of untimely entries) or late by a geometric number of
/// rounds. This is the Section 4 IID world without the latency detour.
class IidTimelinessSampler final : public TimelinessSampler {
 public:
  IidTimelinessSampler(int n, double p, std::uint64_t seed);

  int n() const noexcept override { return n_; }
  void sample_round(Round k, LinkMatrix& out) override;
  void sample_round(Round k, PackedLinkMatrix& out) override;

 private:
  /// A late message is late by at most this many rounds.
  static constexpr int kMaxLate = 16;

  /// The scalar overload's late-or-lost fate draw.
  Delay untimely_fate();

  int n_;
  double p_;
  Rng rng_;
  FateWalk<kMaxLate> fates_;  ///< the packed overload's draw
};

}  // namespace timing

// Per-run measurement machinery mirroring Section 5's methodology:
//  * sample a run of R rounds from a timeliness source;
//  * record, per round, which models' requirements hold (P_M incidence)
//    and the fraction of timely messages (p);
//  * from random starting points, find how many rounds pass until the
//    conditions for global decision hold (R_M consecutive conforming
//    rounds) - the quantity behind Figures 1(g)-(i).
#pragma once

#include <array>
#include <vector>

#include "common/rng.hpp"
#include "models/predicates.hpp"
#include "models/timing_model.hpp"
#include "obs/trace_sink.hpp"
#include "sim/sampler.hpp"

namespace timing {

inline constexpr int kNumModels = 4;

constexpr int model_index(TimingModel m) noexcept {
  return static_cast<int>(m);
}

struct RunMeasurement {
  int rounds = 0;
  /// sat[model][round]: did round (0-based) satisfy the model?
  std::array<std::vector<std::uint8_t>, kNumModels> sat;
  long long messages_total = 0;
  long long messages_timely = 0;
  long long messages_late = 0;
  long long messages_lost = 0;

  /// p for the run: fraction of messages delivered within the timeout.
  double timely_fraction() const noexcept {
    return messages_total
               ? static_cast<double>(messages_timely) / messages_total
               : 0.0;
  }
  /// P_M for the run.
  double incidence(TimingModel m) const noexcept;
};

/// Runs `rounds` rounds of the sampler, evaluating all four predicates
/// with the given (designated) leader. All-to-all traffic is assumed, as
/// in the paper's measurement runs. `trace` (off by default, near-zero
/// cost when null) receives RoundStart, per-link message-fate,
/// PredicateEval and RoundEnd events for every round.
RunMeasurement measure_run(TimelinessSampler& sampler, int rounds,
                           ProcessId leader, TraceSink* trace = nullptr);

struct DecisionWindow {
  double rounds = 0.0;   ///< rounds from the start point until conditions held
  bool censored = false; ///< the run ended before conditions held
};

/// First window of `needed` consecutive satisfying rounds at or after
/// `start` (0-based): returns (end_of_window - start + 1). Censored
/// results report the remaining run length (a lower bound).
DecisionWindow rounds_until_conditions(const std::vector<std::uint8_t>& sat,
                                       int start, int needed);

struct DecisionStats {
  double mean_rounds = 0.0;      ///< mean over start points (censored at cap)
  double censored_fraction = 0.0;
};

/// The paper's "15 random points of each run" average.
DecisionStats decision_stats(const std::vector<std::uint8_t>& sat, int needed,
                             int start_points, Rng& rng);

/// Streaming replacement for the sat-vector + rounds_until_conditions /
/// decision_stats pipeline: pre-draw the random start points, then feed
/// one satisfied/unsatisfied bit per round. A start point s resolves at
/// the first 0-based round i with a `needed`-long satisfied streak whose
/// window lies at or after s (i - needed + 1 >= s), yielding i - s + 1
/// rounds — exactly rounds_until_conditions(sat, s, needed). finalize()
/// averages in the original draw order, so the statistics are
/// bit-identical to the vector-based path while the run itself stores
/// nothing per round.
class ConsecutiveWindowTracker {
 public:
  /// `starts` in draw order (0-based round indices).
  ConsecutiveWindowTracker(int needed, std::vector<int> starts,
                           int total_rounds);

  /// Feed round (#prior calls, 0-based).
  void observe(bool satisfied) noexcept;

  /// Satisfied rounds seen so far (P_M numerator).
  long long satisfied_rounds() const noexcept { return sat_rounds_; }

  /// Mean/censored over the start points; unresolved points report the
  /// remaining run length (censored), like rounds_until_conditions.
  DecisionStats finalize() const;

 private:
  int needed_;
  int total_;
  int round_ = 0;
  int streak_ = 0;
  long long sat_rounds_ = 0;
  std::vector<int> starts_;            ///< draw order
  std::vector<std::size_t> by_start_;  ///< indices of starts_, ascending
  std::size_t next_ = 0;               ///< first unresolved entry of by_start_
  std::vector<double> rounds_;         ///< per draw-order index; -1 pending
};

/// One streamed measurement run: per-model P_M incidence and the mean
/// rounds-until-decision-conditions over `start_points` random start
/// points, computed without per-round vectors via the sampler's
/// sample_round_and_evaluate. Statistically (and bit-for-bit) identical
/// to measure_run + incidence + decision_stats with the same sampler
/// sub-stream and `start_rng`, but the hot loop stays on the packed bit
/// plane. No tracing/metrics. The figure sweeps run
/// measure_run_sweep, which this single-timeout run is the reference for.
struct StreamedRun {
  long long messages_total = 0;
  long long messages_timely = 0;
  long long messages_late = 0;
  long long messages_lost = 0;
  std::array<double, kNumModels> pm{};           ///< P_M per model
  std::array<double, kNumModels> mean_rounds{};  ///< decision_stats mean
  std::array<double, kNumModels> censored{};     ///< censored fraction

  double timely_fraction() const noexcept {
    return messages_total
               ? static_cast<double>(messages_timely) / messages_total
               : 0.0;
  }
};

StreamedRun measure_run_streaming(TimelinessSampler& sampler, int rounds,
                                  ProcessId leader,
                                  const std::array<int, kNumModels>& needed,
                                  int start_points, Rng& start_rng);

/// measure_run_streaming under per-link timing assumptions: the sat bits
/// come from the granular predicates, and the run additionally reports
/// per-class conformance (the fraction of rounds in which every link of
/// each LinkModelClass was timely).
struct GranularStreamedRun {
  StreamedRun base;
  std::array<double, kNumLinkModelClasses> class_pm{};
};

/// The sampler's RNG is consumed in exactly the sample_round per-cell
/// order and the start points are pre-drawn in the same model-major order
/// as measure_run_streaming, so with an all-sync `g` the StreamedRun
/// fields are bit-identical to the homogeneous path on the same
/// sub-streams (tests/granular_test.cpp pins this).
GranularStreamedRun measure_run_streaming_granular(
    TimelinessSampler& sampler, int rounds, ProcessId leader,
    const std::array<int, kNumModels>& needed, int start_points,
    Rng& start_rng, const GranularContext& g);

/// One run of `model` measured at every timeout of a sweep: each round's
/// n(n-1) messages are drawn once and ranked against the sorted distinct
/// timeouts (LatencyModel::draw_ranked_round, which for the WAN model
/// evaluates only the few latencies its bound cannot rank), then the
/// round is ranked once (rank_round). Each timeout's window trackers are
/// fed "threshold <= its sorted index", and its fate tallies come from
/// prefix sums of the run's rank histograms. Entry t is
/// bit-identical to measure_run_streaming — or, with `g`,
/// measure_run_streaming_granular — over a LatencyTimelinessSampler for
/// timeouts_ms[t], given an identically seeded fresh model and
/// `start_rng`: the model's RNG and the start points are consumed in the
/// same order, once instead of once per timeout. Any timeout list works:
/// unsorted, with duplicates, or empty (no entries). Without `g`,
/// class_pm stays zero.
std::vector<GranularStreamedRun> measure_run_sweep(
    LatencyModel& model, const std::vector<double>& timeouts_ms, int rounds,
    ProcessId leader, const std::array<int, kNumModels>& needed,
    int start_points, Rng& start_rng, const GranularContext* g = nullptr);

}  // namespace timing

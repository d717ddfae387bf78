// Latency models: the simulated stand-ins for the paper's physical
// testbeds (a 100 Mbit LAN and 8 PlanetLab sites). See DESIGN.md section 4
// for the substitution rationale and the calibration anchor points.
#pragma once

#include <array>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace timing {

/// Rounds a straggler may stay in flight before it counts as lost (keeps
/// engine queues bounded).
inline constexpr int kMaxDelayRounds = 64;

/// The lost edge: a message of finite latency `ms` that missed its round
/// of `timeout_ms` lands floor(ms / timeout_ms) rounds late, and is lost
/// past kMaxDelayRounds. For ms > 0 it holds for a prefix of any
/// ascending timeout list.
inline bool lost_in_flight(double ms, double timeout_ms) noexcept {
  return std::floor(ms / timeout_ms) > kMaxDelayRounds;
}

/// A message's ranks against m sorted distinct timeouts t_0 < ... <
/// t_{m-1}: the first index at which it is timely (latency <= t_i) and
/// the first at which it is no longer lost, m if there is none. A message
/// of timely rank 0 has lost rank 0.
struct LinkRank {
  int timely = 0;
  int lost = 0;
};

/// The ranks of one latency: the count of timeouts below `ms`, and the
/// first timeout at which lost_in_flight stops holding; {m, m} for a
/// non-finite latency.
LinkRank rank_latency(double ms, std::span<const double> sorted_timeouts);

/// rank_latency of every off-diagonal cell of an n x n latency plane into
/// `ranks` (resized to n x n; self links {0, 0}). `later` is scratch.
void rank_latencies(std::span<const double> latency, int n,
                    std::span<const double> sorted_timeouts,
                    std::vector<LinkRank>& ranks,
                    std::vector<std::array<ProcessId, 2>>& later);

/// One-way message latency source. Implementations may keep per-round or
/// per-run state (burst episodes, slow-node episodes); begin_round() must
/// be called once per round in increasing round order before sampling that
/// round's messages. A model instance represents ONE run; run-scoped
/// pathologies (e.g. "the Poland node was slow in several runs") are drawn
/// at construction, so independent runs use independently seeded models.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  virtual int n() const noexcept = 0;

  /// Advance round-scoped state (burst processes etc.).
  virtual void begin_round(Round k) = 0;

  /// Latency in milliseconds of a message sent from src to dst in the
  /// current round. Returns +infinity when the message is lost.
  virtual double sample_ms(ProcessId src, ProcessId dst) = 0;

  /// Begins round k and ranks its n(n-1) messages against
  /// `sorted_timeouts` (ascending, distinct): ranks[dst * n + src] (resized
  /// to n x n) is rank_latency of the latency sample_ms(src, dst) draws,
  /// in (dst, src) order; self links take no draw and rank {0, 0}. The
  /// default does exactly that. An override may skip the arithmetic of a
  /// latency whose ranks it can bound, but gives the same ranks and
  /// consumes its generator as the default does, so every later draw is
  /// the same too.
  virtual void draw_ranked_round(Round k,
                                 std::span<const double> sorted_timeouts,
                                 std::vector<LinkRank>& ranks);

  /// Human-readable node name (site name for the WAN model).
  virtual std::string node_name(ProcessId i) const;

 private:
  /// The default draw_ranked_round's drawn plane and rank_latencies'
  /// scratch.
  std::vector<double> drawn_;
  std::vector<std::array<ProcessId, 2>> later_;
};

/// Begins round k of `model` and draws its n(n-1) message latencies into
/// `latency` (resized to n x n, row dst, column src) in (dst, src) order,
/// the order every latency sampler path consumes the model's RNG in. The
/// diagonal is 0 and not drawn.
void draw_latency_round(LatencyModel& model, Round k,
                        std::vector<double>& latency);

/// Parameters of the LAN profile (Section 5.2). Defaults are calibrated so
/// that the fraction of messages within 0.1 ms is ~0.70 and within 0.2 ms
/// is ~0.976, matching the paper's measurements, and so that late messages
/// cluster in bursts (the paper's explanation for ES beating its IID
/// prediction) and one node is occasionally slow to receive (the paper's
/// explanation for AFM/LM undershooting theirs).
struct LanProfile {
  int n = 8;
  double base_ms = 0.030;         ///< fixed propagation + stack floor
  double lognormal_mu = -3.00;    ///< jitter: exp(N(mu, sigma)) added to base
  double lognormal_sigma = 0.45;
  /// Per-node speed multiplier applied to all latencies touching the
  /// node; spreads connectivity so that "a good leader" vs "an average
  /// leader" (Section 5.2) is meaningful on the LAN too. Node 0 is the
  /// best-connected machine, node 5 (also the slow-episode node) the
  /// worst.
  double node_factor[8] = {0.78, 1.0, 0.95, 1.08, 1.15, 1.3, 0.9, 1.0};
  double burst_enter_prob = 0.004;  ///< per round, enter a congested episode
  double burst_exit_prob = 0.35;   ///< per round, leave the episode
  double burst_factor = 8.0;       ///< latency multiplier inside an episode
  ProcessId slow_node = 5;         ///< the occasionally slow machine
  double slow_enter_prob = 0.015;
  double slow_exit_prob = 0.25;
  double slow_factor = 5.0;        ///< applies to the slow node's inbound links
  double loss_prob = 0.0005;
};

/// Quality class of a WAN link; determines jitter and tail behaviour.
enum class LinkQuality { kGood, kMedium, kBad };

/// Per-quality-class noise parameters.
struct LinkNoise {
  double jitter_sigma;   ///< lognormal multiplier sigma on the base latency
  double spike_prob;     ///< probability of a heavy-tail (Pareto) spike
  double loss_prob;      ///< outright packet loss
};

/// Parameters of the WAN (PlanetLab) profile, Section 5.3: 8 sites in
/// Switzerland, Japan, California, Georgia (US), China, Poland, UK and
/// Sweden.
///
/// Mechanisms reproduced from the paper's observations:
///  * the UK site is well connected (all its links are at most Medium
///    quality with moderate base latency) - it is the designated leader;
///  * the Poland site is slow to RECEIVE in a fraction of runs (run-scoped
///    draw + in-run episodes): its inbound links gain slow_extra_ms, which
///    leaves nearby European senders timely but makes intercontinental
///    senders late - this is what gives  <>LM its high variance at short
///    timeouts while leaving <>WLM mostly intact (Figures 1(e)/(f));
///  * the China site has chronically bursty OUTBOUND links (+burst ms in
///    roughly half the rounds), which suppresses its column majority and
///    caps P_<>AFM around 0.4 consistently at short timeouts while barely
///    affecting <>LM; the burst magnitude is chosen so the column recovers
///    around a 230 ms timeout, where the paper reports <>AFM catching up.
///
/// Calibration anchors (Figure 1(d)): p ~ 0.88 @ 160 ms, ~0.90 @ 170 ms,
/// ~0.95 @ 200 ms, ~0.96 @ 210 ms, with a ~99% ceiling.
struct WanProfile {
  int n = 8;
  LinkNoise good{0.10, 0.004, 0.002};
  LinkNoise medium{0.205, 0.010, 0.005};
  LinkNoise bad{0.265, 0.018, 0.009};
  double spike_pareto_xm = 1.6;   ///< spike multiplies latency by Pareto(xm, alpha)
  double spike_pareto_alpha = 1.4;
  /// Run-scoped global jitter multiplier exp(N(0, sigma)): some runs are
  /// globally slower than others (PlanetLab load varies by hour). This is
  /// what gives ES its LARGE run-to-run variance at long timeouts
  /// (Figure 1(e)/(f)) while the majority-based models absorb it.
  double run_jitter_sigma = 0.10;

  ProcessId slow_inbound_node = 5;  ///< Poland
  double slow_run_prob = 0.30;      ///< fraction of runs with a slow Poland
  double slow_enter_prob = 0.15;    ///< episode dynamics within a slow run
  double slow_exit_prob = 0.05;
  double slow_extra_ms = 110.0;     ///< added to Poland's inbound latency

  ProcessId bursty_outbound_node = 4;  ///< China
  double burst_enter_prob = 0.30;
  double burst_exit_prob = 0.35;
  double burst_extra_ms = 90.0;  ///< added to China's outbound latency
};

/// IID network: every message is timely with probability p and otherwise
/// late/lost. This is the world of the Section 4 analysis; the "latency"
/// returned is synthetic (below/above an implied 1.0 ms timeout) and only
/// its relation to the timeout matters.
class IidLatencyModel final : public LatencyModel {
 public:
  IidLatencyModel(int n, double p, std::uint64_t seed,
                  double loss_share = 0.25, double timeout_ms = 1.0);

  int n() const noexcept override { return n_; }
  void begin_round(Round k) override;
  double sample_ms(ProcessId src, ProcessId dst) override;

 private:
  int n_;
  double p_;
  double loss_share_;  ///< fraction of untimely messages that are lost outright
  double timeout_ms_;
  Rng rng_;
};

class LanLatencyModel final : public LatencyModel {
 public:
  LanLatencyModel(LanProfile profile, std::uint64_t seed);

  int n() const noexcept override { return profile_.n; }
  void begin_round(Round k) override;
  double sample_ms(ProcessId src, ProcessId dst) override;

  const LanProfile& profile() const noexcept { return profile_; }
  bool in_burst() const noexcept { return in_burst_; }

 private:
  LanProfile profile_;
  Rng rng_;
  bool in_burst_ = false;
  bool slow_episode_ = false;
};

/// The WAN model's message latency is
///   base_ms * run_jitter * exp(sigma z) [* Pareto spike] [+ extras],
/// with z a standard normal deviate of a Box-Muller pair the model keeps
/// itself and evaluates lazily: the pair's uniforms are drawn where
/// Rng::normal draws them, and box_muller runs only once one of its halves
/// is needed exactly. sample_ms always needs it. The ranked round
/// (draw_ranked_round) first bounds z from the uniforms alone and
/// evaluates a latency only when the bound cannot rank it (see
/// latency_model.cpp). Both run one per-link draw, so they consume the
/// generator identically and can be mixed round by round.
class WanLatencyModel final : public LatencyModel {
 public:
  WanLatencyModel(WanProfile profile, std::uint64_t seed);

  int n() const noexcept override { return profile_.n; }
  void begin_round(Round k) override;
  double sample_ms(ProcessId src, ProcessId dst) override;
  void draw_ranked_round(Round k, std::span<const double> sorted_timeouts,
                         std::vector<LinkRank>& ranks) override;
  std::string node_name(ProcessId i) const override;

  /// Base (median, uncongested) one-way latency between two sites, ms.
  double base_ms(ProcessId src, ProcessId dst) const noexcept;
  /// Quality class of a directed link (symmetric in practice).
  LinkQuality quality(ProcessId src, ProcessId dst) const noexcept;

  bool slow_run() const noexcept { return slow_run_; }
  const WanProfile& profile() const noexcept { return profile_; }

  /// Index of the UK site (the paper's designated leader).
  static constexpr ProcessId kUk = 6;

 private:
  static constexpr int kSites = 8;

  /// Per-link constants (row dst, column src), set at construction.
  struct Link {
    double bj;            ///< base_ms * run_jitter
    double sigma;         ///< the quality class's jitter_sigma
    double ln_bj;         ///< log(bj); NaN where the ranked bound is off
    std::uint64_t loss;   ///< Rng::bernoulli_threshold of loss_prob
    std::uint64_t spike;  ///< and of spike_prob
  };
  /// The jitter's Box-Muller pair: its uniforms as 53-bit integers
  /// (u = x * 2^-53), and box_muller of them once computed.
  struct LazyPair {
    std::uint64_t x1 = 0;
    std::uint64_t x2 = 0;
    bool spare = false;  ///< the second half is the next deviate
    bool exact = false;  ///< z holds box_muller(u1, u2)
    NormalPair z{};
  };
  /// One message's draws, in sample_ms's order.
  struct Draw {
    bool lost = false;
    bool second = false;  ///< its deviate is the pair's second half
    bool spiked = false;
    double pareto = 1.0;  ///< the spike's factor
  };
  /// The ranked round's cutoffs for one sorted timeout list, per extras
  /// e (bit 0: Poland's slow_extra_ms applies, bit 1: China's
  /// burst_extra_ms): ln(t_i - X_e) less (lo) or plus (hi) the margin,
  /// m entries from e * m, and the lost edge's ln(65 t_0 - X_e) less the
  /// margin. lo and lost are NaN where e's cutoffs are not well
  /// conditioned, so every comparison fails and the link is evaluated.
  struct Cutoffs {
    std::vector<double> timeouts;
    std::vector<double> lo;
    std::vector<double> hi;
    std::array<double, 4> lost{};
  };

  bool take_deviate();
  double deviate(bool second);
  Draw draw(const Link& link);
  unsigned extras(ProcessId src, ProcessId dst) const noexcept;
  double exact_ms(const Link& link, const Draw& d, unsigned extras);
  void set_cutoffs(std::span<const double> sorted_timeouts);

  WanProfile profile_;
  Rng rng_;
  bool slow_run_;
  double run_jitter_ = 1.0;
  bool slow_episode_ = false;
  bool out_burst_ = false;
  LazyPair pair_;
  std::array<Link, kSites * kSites> links_{};
  Cutoffs cut_;
};

}  // namespace timing

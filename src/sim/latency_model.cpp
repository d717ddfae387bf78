#include "sim/latency_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace timing {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}

LinkRank rank_latency(double ms, std::span<const double> sorted_timeouts) {
  const double* t = sorted_timeouts.data();
  const int m = static_cast<int>(sorted_timeouts.size());
  if (!std::isfinite(ms)) return {m, m};
  // The count of timeouts below ms is the first index it is within.
  // Branch-free; the guard above keeps NaN from counting as timely. A
  // message lost at t_0 is late there, so only a late one is tested.
  LinkRank r;
  for (int i = 0; i < m; ++i) r.timely += t[i] < ms ? 1 : 0;
  if (r.timely > 0 && lost_in_flight(ms, t[0])) {
    r.lost = static_cast<int>(
        std::partition_point(t + 1, t + r.timely,
                             [&](double timeout) {
                               return lost_in_flight(ms, timeout);
                             }) -
        t);
  }
  return r;
}

void rank_latencies(std::span<const double> latency, int n,
                    std::span<const double> sorted_timeouts,
                    std::vector<LinkRank>& ranks,
                    std::vector<std::array<ProcessId, 2>>& later) {
  TM_CHECK(n >= 1 && latency.size() == static_cast<std::size_t>(n) * n,
           "latency plane size must be n x n");
  ranks.assign(latency.size(), LinkRank{});
  later.resize(latency.size());
  // A latency within the first timeout ranks {0, 0}. That is the common
  // case, so a branch-free pass lists the other links (NaN fails the
  // test too) and only those are ranked. With no timeout every link
  // ranks {0, 0}, whether listed or not.
  const double t0 = sorted_timeouts.empty() ? kInf : sorted_timeouts[0];
  std::size_t count = 0;
  for (ProcessId dst = 0; dst < n; ++dst) {
    const std::size_t row = static_cast<std::size_t>(dst) * n;
    for (ProcessId src = 0; src < n; ++src) {
      later[count] = {dst, src};
      count += (src != dst) & !(latency[row + src] <= t0);
    }
  }
  for (std::size_t j = 0; j < count; ++j) {
    const std::size_t cell = static_cast<std::size_t>(later[j][0]) * n +
                             static_cast<std::size_t>(later[j][1]);
    ranks[cell] = rank_latency(latency[cell], sorted_timeouts);
  }
}

void draw_latency_round(LatencyModel& model, Round k,
                        std::vector<double>& latency) {
  const int n = model.n();
  latency.resize(static_cast<std::size_t>(n) * n);
  model.begin_round(k);
  double* cell = latency.data();
  for (ProcessId dst = 0; dst < n; ++dst) {
    for (ProcessId src = 0; src < n; ++src, ++cell) {
      *cell = src == dst ? 0.0 : model.sample_ms(src, dst);
    }
  }
}

void LatencyModel::draw_ranked_round(Round k,
                                     std::span<const double> sorted_timeouts,
                                     std::vector<LinkRank>& ranks) {
  draw_latency_round(*this, k, drawn_);
  rank_latencies(drawn_, n(), sorted_timeouts, ranks, later_);
}

std::string LatencyModel::node_name(ProcessId i) const {
  return "node" + std::to_string(i);
}

// ---------------------------------------------------------------- IID --

IidLatencyModel::IidLatencyModel(int n, double p, std::uint64_t seed,
                                 double loss_share, double timeout_ms)
    : n_(n), p_(p), loss_share_(loss_share), timeout_ms_(timeout_ms),
      rng_(seed) {
  TM_CHECK(n > 1, "IID model needs n > 1");
  TM_CHECK(p >= 0.0 && p <= 1.0, "p must be a probability");
}

void IidLatencyModel::begin_round(Round) {}

double IidLatencyModel::sample_ms(ProcessId, ProcessId) {
  if (rng_.bernoulli(p_)) return 0.5 * timeout_ms_;
  if (rng_.bernoulli(loss_share_)) return kInf;
  // Late by a geometric number of rounds: most stragglers arrive soon.
  double lateness = 1.0;
  while (rng_.bernoulli(0.4) && lateness < 16.0) lateness += 1.0;
  return (lateness + 0.5) * timeout_ms_;
}

// ---------------------------------------------------------------- LAN --

LanLatencyModel::LanLatencyModel(LanProfile profile, std::uint64_t seed)
    : profile_(profile), rng_(seed) {
  TM_CHECK(profile_.n > 1, "LAN model needs n > 1");
}

void LanLatencyModel::begin_round(Round) {
  if (in_burst_) {
    if (rng_.bernoulli(profile_.burst_exit_prob)) in_burst_ = false;
  } else if (rng_.bernoulli(profile_.burst_enter_prob)) {
    in_burst_ = true;
  }
  if (slow_episode_) {
    if (rng_.bernoulli(profile_.slow_exit_prob)) slow_episode_ = false;
  } else if (rng_.bernoulli(profile_.slow_enter_prob)) {
    slow_episode_ = true;
  }
}

double LanLatencyModel::sample_ms(ProcessId src, ProcessId dst) {
  if (src == dst) return 0.0;
  if (rng_.bernoulli(profile_.loss_prob)) return kInf;
  double ms = profile_.base_ms +
              rng_.lognormal(profile_.lognormal_mu, profile_.lognormal_sigma);
  ms *= profile_.node_factor[src % 8] * profile_.node_factor[dst % 8];
  if (in_burst_) ms *= profile_.burst_factor;
  if (slow_episode_ && dst == profile_.slow_node) ms *= profile_.slow_factor;
  return ms;
}

// ---------------------------------------------------------------- WAN --

namespace {

// Site order: 0 CH (Switzerland), 1 JP (Japan), 2 CA (California, US),
// 3 GA (Georgia, US), 4 CN (China), 5 PL (Poland), 6 UK, 7 SE (Sweden).
constexpr std::array<const char*, 8> kSiteNames = {
    "CH", "JP", "CA-US", "GA-US", "CN", "PL", "UK", "SE"};

// Median one-way latencies (ms), PlanetLab era. Symmetric. The UK site
// has unusually good long-haul links (dedicated research-network routes
// to JP/CN), which is why the paper's offline ping-based election picks
// it: its worst-case RTT beats every other site's (see the
// WellConnectedElectionPicksUk test).
constexpr double kBaseMs[8][8] = {
    //  CH    JP    CA    GA    CN    PL    UK    SE
    { 0.1,  135,   80,   55,  140,   22,   10,   22},  // CH
    { 135,  0.1,   60,   85,   35,  140,   95,  138},  // JP
    {  80,   60,  0.1,   30,  110,   90,   72,   85},  // CA
    {  55,   85,   30,  0.1,  110,   65,   48,   58},  // GA
    { 140,   35,  110,  110,  0.1,  140,   95,  135},  // CN
    {  22,  140,   90,   65,  140,  0.1,   24,   18},  // PL
    {  10,   95,   72,   48,   95,   24,  0.1,   14},  // UK
    {  22,  138,   85,   58,  135,   18,   14,  0.1},  // SE
};

// G = good, M = medium, B = bad. Intra-Europe and CA-GA are good; links
// touching the UK are at worst medium; remaining intercontinental links
// involving JP/CN are bad; US<->Europe are medium.
constexpr char kQuality[8][8] = {
    //  CH   JP   CA   GA   CN   PL   UK   SE
    { 'G', 'B', 'M', 'M', 'B', 'G', 'G', 'G'},  // CH
    { 'B', 'G', 'M', 'B', 'M', 'B', 'M', 'B'},  // JP
    { 'M', 'M', 'G', 'G', 'B', 'M', 'M', 'M'},  // CA
    { 'M', 'B', 'G', 'G', 'B', 'M', 'M', 'M'},  // GA
    { 'B', 'M', 'B', 'B', 'G', 'B', 'M', 'B'},  // CN
    { 'G', 'B', 'M', 'M', 'B', 'G', 'G', 'G'},  // PL
    { 'G', 'M', 'M', 'M', 'M', 'G', 'G', 'G'},  // UK
    { 'G', 'B', 'M', 'M', 'B', 'G', 'G', 'G'},  // SE
};

}  // namespace

// The ranked round's bound. A message's deviate is z = r cos(theta), or
// r sin(theta) for the pair's second half, with r = sqrt(-2 ln u1) and
// theta = 2 pi u2 (box_muller). r falls as u1 rises, and cos and sin are
// monotone on each of kBuckets equal u2-buckets, kBuckets being a multiple
// of 4. So one table of r over u1-buckets and one of cos and sin over
// u2-buckets give z in [zlo, zhi]: four products and a min and a max,
// with no branch and no libm call.
//
// Without a spike, the latency is ms = bj exp(sigma z) + X, where X is
// the sum of the extras in effect. ms rises with z, so t < ms exactly when
// w = ln(bj) + sigma z > ln(t - X): the bound on z bounds w, and a link is
// ranked when both ends of [wlo, whi] pass the same cutoffs ln(t_i - X)
// and whi stays below the lost edge ln(65 t_0 - X) (floor(ms / t_0) > 64).
//
// Why no rounding breaks this. The tables are widened by kWiden (r
// relative, cos and sin absolute), far beyond the 1-2 ULP error of log,
// sqrt, sin and cos, so the z that box_muller computes lies in the real
// box of each bucket. The cutoffs are widened by kWiden in w, that is,
// 1e-9 relative in ms - X. Against that margin, with 0 < sigma <=
// kMaxSigma (|sigma z| <= 550, so exp neither overflows nor underflows),
// |ln bj| <= 645 and |t - X| at least kKappa times t + |extras| and at
// least kMinScale: the products of the bound err by 2e-15 in z; fl(sigma
// z), exp and the product with bj put ln(bj exp(sigma z)) within 2e-13
// of w (a product past the double range lies past every cutoff or the
// lost edge); log(t - X) errs by 3e-13; and the additions of the extras
// and the lost edge's division move the decision point by 4e-13
// relative. The sum, about 1e-12, is below the margin by three orders of
// magnitude (six against the few-ULP errors alone). A cutoff below X by
// that conditioning margin is passed by every latency (-inf). Every other
// case is evaluated exactly with sample_ms's
// expressions: every lost draw and every spike, every link whose [wlo,
// whi] straddles a cutoff, every link whose sigma, bj or cutoffs fall
// outside the bounds above (sigma <= 0, t - X near 0, non-finite values),
// for any WanProfile. The pair is evaluated at most once, and its other
// half reuses the result.
namespace {

constexpr int kBucketBits = 8;
constexpr int kBuckets = 1 << kBucketBits;
constexpr int kBucketShift = 53 - kBucketBits;  ///< of a 53-bit uniform
static_assert(kBuckets % 4 == 0, "a bucket must not span a quadrant edge");
constexpr double kWiden = 1e-9;
constexpr double kKappa = 1e-3;
constexpr double kMaxSigma = 64.0;
constexpr double kMinScale = 1e-280;
constexpr double kMaxScale = 1e280;

/// [lo, hi] of r over each u1-bucket and of cos (first half) and sin
/// (second half, from index kBuckets) over each u2-bucket, widened.
struct DeviateBounds {
  std::array<std::array<double, 2>, kBuckets> r;
  std::array<std::array<double, 2>, 2 * kBuckets> trig;
};

const DeviateBounds& deviate_bounds() {
  static const DeviateBounds bounds = [] {
    DeviateBounds b;
    // box_muller's r and theta at the bucket edges u = k / kBuckets. The
    // least u1 normal() takes is 2^-53 (it redraws 0).
    const auto r_at = [](double u) { return std::sqrt(-2.0 * std::log(u)); };
    const auto theta_at = [](double u) {
      return 2.0 * 3.14159265358979323846 * u;
    };
    for (int k = 0; k < kBuckets; ++k) {
      const double lo_u = k == 0 ? 0x1.0p-53 : k / double{kBuckets};
      const double hi_u = (k + 1) / double{kBuckets};
      b.r[static_cast<std::size_t>(k)] = {r_at(hi_u) * (1.0 - kWiden),
                                          r_at(lo_u) * (1.0 + kWiden)};
      const double a = theta_at(k / double{kBuckets});
      const double z = theta_at((k + 1) / double{kBuckets});
      for (int half = 0; half < 2; ++half) {
        const double fa = half == 0 ? std::cos(a) : std::sin(a);
        const double fz = half == 0 ? std::cos(z) : std::sin(z);
        b.trig[static_cast<std::size_t>(half * kBuckets + k)] = {
            std::min(fa, fz) - kWiden, std::max(fa, fz) + kWiden};
      }
    }
    return b;
  }();
  return bounds;
}

/// ln(t - X) for a cutoff at latency t under extras X (`extra_abs` the
/// sum of the extras' magnitudes); -inf when t is below X by a
/// well-conditioned margin (every latency passes it). Clears `ok` when
/// the cutoff is not well conditioned.
double log_cutoff(double t, double extra, double extra_abs, bool& ok) {
  const double v = t - extra;
  const double scale = t + extra_abs;
  if (std::isfinite(v) && std::isfinite(scale)) {
    if (v >= kKappa * scale && v >= kMinScale) return std::log(v);
    if (v <= -kKappa * scale) return -kInf;
  }
  ok = false;
  return kNaN;
}

}  // namespace

WanLatencyModel::WanLatencyModel(WanProfile profile, std::uint64_t seed)
    : profile_(profile), rng_(seed) {
  TM_CHECK(profile_.n == kSites, "the WAN profile models exactly 8 sites");
  slow_run_ = rng_.bernoulli(profile_.slow_run_prob);
  // lognormal(0, sigma) from the pair's first half; as with Rng::normal,
  // its second half is the next deviate (the first message's).
  take_deviate();
  run_jitter_ = std::exp(profile_.run_jitter_sigma * deviate(false));
  for (ProcessId dst = 0; dst < kSites; ++dst) {
    for (ProcessId src = 0; src < kSites; ++src) {
      const LinkNoise& noise = [&]() -> const LinkNoise& {
        switch (quality(src, dst)) {
          case LinkQuality::kGood: return profile_.good;
          case LinkQuality::kMedium: return profile_.medium;
          default: return profile_.bad;
        }
      }();
      Link& link = links_[static_cast<std::size_t>(dst * kSites + src)];
      link.bj = base_ms(src, dst) * run_jitter_;
      link.sigma = noise.jitter_sigma;
      link.loss = Rng::bernoulli_threshold(noise.loss_prob);
      link.spike = Rng::bernoulli_threshold(noise.spike_prob);
      const bool bounded = link.sigma > 0.0 && link.sigma <= kMaxSigma &&
                           link.bj >= kMinScale && link.bj <= kMaxScale;
      link.ln_bj = bounded ? std::log(link.bj) : kNaN;
    }
  }
}

std::string WanLatencyModel::node_name(ProcessId i) const {
  return kSiteNames[static_cast<std::size_t>(i)];
}

double WanLatencyModel::base_ms(ProcessId src, ProcessId dst) const noexcept {
  return kBaseMs[src][dst];
}

LinkQuality WanLatencyModel::quality(ProcessId src,
                                     ProcessId dst) const noexcept {
  switch (kQuality[src][dst]) {
    case 'G': return LinkQuality::kGood;
    case 'M': return LinkQuality::kMedium;
    default: return LinkQuality::kBad;
  }
}

void WanLatencyModel::begin_round(Round) {
  if (slow_run_) {
    if (slow_episode_) {
      if (rng_.bernoulli(profile_.slow_exit_prob)) slow_episode_ = false;
    } else if (rng_.bernoulli(profile_.slow_enter_prob)) {
      slow_episode_ = true;
    }
  }
  if (out_burst_) {
    if (rng_.bernoulli(profile_.burst_exit_prob)) out_burst_ = false;
  } else if (rng_.bernoulli(profile_.burst_enter_prob)) {
    out_burst_ = true;
  }
}

bool WanLatencyModel::take_deviate() {
  if (pair_.spare) {
    pair_.spare = false;
    return true;
  }
  // Rng::normal's draws: u1 until it is above 1e-300, which only 0 is
  // not, then u2.
  do {
    pair_.x1 = rng_.next() >> 11;
  } while (pair_.x1 == 0);
  pair_.x2 = rng_.next() >> 11;
  pair_.spare = true;
  pair_.exact = false;
  return false;
}

double WanLatencyModel::deviate(bool second) {
  if (!pair_.exact) {
    pair_.z = box_muller(static_cast<double>(pair_.x1) * 0x1.0p-53,
                         static_cast<double>(pair_.x2) * 0x1.0p-53);
    pair_.exact = true;
  }
  return second ? pair_.z.second : pair_.z.first;
}

WanLatencyModel::Draw WanLatencyModel::draw(const Link& link) {
  // Each bernoulli(p) is the integer compare with its threshold.
  Draw d;
  if ((rng_.next() >> 11) < link.loss) {
    d.lost = true;
    return d;
  }
  d.second = take_deviate();
  if ((rng_.next() >> 11) < link.spike) {
    d.spiked = true;
    d.pareto =
        rng_.pareto(profile_.spike_pareto_xm, profile_.spike_pareto_alpha);
  }
  return d;
}

unsigned WanLatencyModel::extras(ProcessId src, ProcessId dst) const noexcept {
  return static_cast<unsigned>(slow_episode_ &&
                               dst == profile_.slow_inbound_node) |
         static_cast<unsigned>(out_burst_ &&
                               src == profile_.bursty_outbound_node)
             << 1;
}

double WanLatencyModel::exact_ms(const Link& link, const Draw& d,
                                 unsigned extras) {
  // lognormal(0, sigma) is exp(0 + sigma z); adding 0 changes no exp.
  double ms = link.bj * std::exp(link.sigma * deviate(d.second));
  if (d.spiked) ms *= d.pareto;
  if (extras & 1u) ms += profile_.slow_extra_ms;
  if (extras & 2u) ms += profile_.burst_extra_ms;
  return ms;
}

double WanLatencyModel::sample_ms(ProcessId src, ProcessId dst) {
  if (src == dst) return 0.0;
  const Link& link = links_[static_cast<std::size_t>(dst * kSites + src)];
  const Draw d = draw(link);
  if (d.lost) return kInf;
  return exact_ms(link, d, extras(src, dst));
}

void WanLatencyModel::set_cutoffs(std::span<const double> t) {
  const std::size_t m = t.size();
  cut_.timeouts.assign(t.begin(), t.end());
  cut_.lo.resize(4 * m);
  cut_.hi.resize(4 * m);
  for (unsigned e = 0; e < 4; ++e) {
    const double slow = e & 1u ? profile_.slow_extra_ms : 0.0;
    const double burst = e & 2u ? profile_.burst_extra_ms : 0.0;
    const double extra = slow + burst;
    const double extra_abs = std::abs(slow) + std::abs(burst);
    double* lo = cut_.lo.data() + e * m;
    double* hi = cut_.hi.data() + e * m;
    bool ok = true;
    for (std::size_t i = 0; i < m; ++i) {
      const double c = log_cutoff(t[i], extra, extra_abs, ok);
      lo[i] = c - kWiden;
      hi[i] = c + kWiden;
    }
    double lost = log_cutoff((kMaxDelayRounds + 1) * t[0], extra, extra_abs,
                             ok) -
                  kWiden;
    if (!ok || !std::is_sorted(lo, lo + m)) {
      // Every link under these extras is evaluated exactly.
      std::fill(lo, lo + m, kNaN);
      lost = kNaN;
    }
    cut_.lost[e] = lost;
  }
}

void WanLatencyModel::draw_ranked_round(Round k,
                                        std::span<const double> t,
                                        std::vector<LinkRank>& ranks) {
  const int m = static_cast<int>(t.size());
  if (m == 0) {
    LatencyModel::draw_ranked_round(k, t, ranks);
    return;
  }
  if (!std::ranges::equal(cut_.timeouts, t)) set_cutoffs(t);
  begin_round(k);
  ranks.resize(kSites * kSites);
  const DeviateBounds& bounds = deviate_bounds();
  for (ProcessId dst = 0; dst < kSites; ++dst) {
    for (ProcessId src = 0; src < kSites; ++src) {
      const auto cell = static_cast<std::size_t>(dst * kSites + src);
      LinkRank& rank = ranks[cell];
      if (src == dst) {
        rank = {};
        continue;
      }
      const Link& link = links_[cell];
      const Draw d = draw(link);
      if (d.lost) {
        rank = {m, m};
        continue;
      }
      const unsigned e = extras(src, dst);
      if (!d.spiked) {
        const auto& r = bounds.r[pair_.x1 >> kBucketShift];
        const auto& c =
            bounds.trig[(d.second ? kBuckets : 0) + (pair_.x2 >> kBucketShift)];
        const double zlo = std::min(r[0] * c[0], r[1] * c[0]);
        const double zhi = std::max(r[0] * c[1], r[1] * c[1]);
        const double wlo = link.ln_bj + link.sigma * zlo;
        const double whi = link.ln_bj + link.sigma * zhi;
        const double* lo = cut_.lo.data() + e * static_cast<unsigned>(m);
        if (whi <= lo[0]) {  // within t_0, so not lost either
          rank = {};
          continue;
        }
        if (whi < cut_.lost[e]) {
          int passed = 0;  // the cutoffs whi may pass; lo[0] at least
          for (int i = 0; i < m; ++i) passed += lo[i] < whi ? 1 : 0;
          const double* hi = cut_.hi.data() + e * static_cast<unsigned>(m);
          if (wlo > hi[passed - 1]) {  // and wlo surely passes
            rank = {passed, 0};
            continue;
          }
        }
      }
      rank = rank_latency(exact_ms(link, d, e), t);
    }
  }
}

}  // namespace timing

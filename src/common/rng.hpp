// Deterministic, fast pseudo-random generation.
//
// All stochastic components (latency models, adversarial schedules,
// Monte-Carlo validation) draw from this generator so that every
// experiment is reproducible from a single 64-bit seed.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

namespace timing {

/// Two independent standard normal deviates from one Box-Muller transform.
struct NormalPair {
  double first;   ///< r cos(theta)
  double second;  ///< r sin(theta)
};

/// The Box-Muller transform of Rng::normal: r = sqrt(-2 ln u1) and
/// theta = 2 pi u2, for u1 in (0, 1] and u2 in [0, 1). sin and cos of the
/// one angle are computed together (one sincos call).
inline NormalPair box_muller(double u1, double u2) noexcept {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  return {r * std::cos(theta), r * std::sin(theta)};
}

/// splitmix64 — used to expand a user seed into xoshiro state.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** by Blackman & Vigna. Satisfies UniformRandomBitGenerator,
/// so it can also be plugged into <random> distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept { return next(); }
  // next() and uniform() are defined here, not in rng.cpp, so that the
  // samplers' per-link draws inline.
  std::uint64_t next() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the 53 high bits of next().
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t uniform_int(std::uint64_t bound) noexcept;

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// The same trial as an integer compare: for every draw, bernoulli(p)
  /// equals (next() >> 11) < bernoulli_threshold(p). uniform() scales the
  /// 53-bit value x by 2^-53 exactly, and an integer x is below the real
  /// p * 2^53 iff it is below its ceiling; clamped to [0, 2^53], and 0
  /// for p <= 0 or NaN (no x is below them).
  static std::uint64_t bernoulli_threshold(double p) noexcept {
    if (!(p > 0.0)) return 0;
    if (p >= 1.0) return 1ULL << 53;
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  }

  /// Standard normal via Box-Muller (caches the spare deviate): draws u1
  /// until it is above 1e-300 (only 0 is not), then u2, and returns
  /// box_muller(u1, u2).first, then .second on the next call.
  double normal() noexcept;

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Lognormal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma) noexcept;

  /// Exponential with given mean (mean = 1/lambda).
  double exponential(double mean) noexcept;

  /// Pareto with scale x_m and shape alpha (heavy tail for WAN spikes).
  double pareto(double x_m, double alpha) noexcept;

  /// Derive an independent stream (e.g. one per link or per run).
  /// Stateful: advances this generator, so the result depends on how many
  /// splits happened before. For parallel trials prefer substream().
  Rng split() noexcept;

 private:
  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

/// Counter-based sub-stream seed for trial `index` of a root seed: a pure
/// function of (root, index), so trial k draws the same values no matter
/// which thread runs it, in what order sub-streams are created, or how
/// many trials exist. This is the seed derivation the experiment harness
/// has always used per run; exposed here so every parallel consumer
/// shares it.
std::uint64_t substream_seed(std::uint64_t root, std::uint64_t index) noexcept;

/// The generator for trial `index` of root seed `root`.
Rng substream(std::uint64_t root, std::uint64_t index) noexcept;

}  // namespace timing

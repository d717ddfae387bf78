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

  /// Standard normal via Box-Muller (caches the spare deviate).
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

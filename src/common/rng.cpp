#include "common/rng.hpp"

#include <cmath>

namespace timing {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t bound) noexcept {
  // Lemire-style rejection-free multiply-shift; bias is negligible for the
  // bounds used here (n <= a few thousand), but we debias anyway.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0ULL - bound) % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u1 = 0.0;
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  const NormalPair z = box_muller(u1, u2);
  spare_ = z.second;
  has_spare_ = true;
  return z.first;
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double mean) noexcept {
  double u = uniform();
  while (u <= 1e-300) u = uniform();
  return -mean * std::log(u);
}

double Rng::pareto(double x_m, double alpha) noexcept {
  double u = uniform();
  while (u <= 1e-300) u = uniform();
  return x_m / std::pow(u, 1.0 / alpha);
}

Rng Rng::split() noexcept { return Rng(next() ^ 0xa0761d6478bd642fULL); }

std::uint64_t substream_seed(std::uint64_t root, std::uint64_t index) noexcept {
  std::uint64_t s = root ^ (0x51ed2701a2b9d4e3ULL * (index + 1));
  return splitmix64(s);
}

Rng substream(std::uint64_t root, std::uint64_t index) noexcept {
  return Rng(substream_seed(root, index));
}

}  // namespace timing

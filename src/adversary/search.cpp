#include "adversary/search.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace timing::adversary {

namespace {

/// Distinct salts keep the three per-(generation, walker) draws — fresh
/// seeds, mutations, acceptance coins — on independent sub-streams.
constexpr std::uint64_t kSeedSalt = 0x5eed;
constexpr std::uint64_t kMutateSalt = 0x3017a7e;
constexpr std::uint64_t kAcceptSalt = 0xacce97;

/// Annealing schedule, in score units (mean rounds): the temperature
/// starts at kT0 and cools geometrically by kCooling per generation down
/// to kTMin.
constexpr double kT0 = 1.0;
constexpr double kTMin = 0.02;
constexpr double kCooling = 0.95;
/// Acceptance credit for a coverage signature no evaluation showed yet.
constexpr double kNoveltyBonus = 0.25;
/// A fresh uniform seed instead of a mutation.
constexpr double kRestartP = 0.15;
/// A mutation of a random current elite instead of the walker's chain.
constexpr double kExploitP = 0.3;

/// The temperature is a pure function of the generation index.
double temperature(long long generation) noexcept {
  return std::max(kTMin,
                  kT0 * std::pow(kCooling, static_cast<double>(generation)));
}

std::uint64_t stream(std::uint64_t root, std::uint64_t salt, long long gen,
                     int walker) {
  return substream_seed(substream_seed(root ^ salt,
                                       static_cast<std::uint64_t>(gen)),
                        static_cast<std::uint64_t>(walker));
}

}  // namespace

AdversarySearch::AdversarySearch(SearchConfig cfg) : cfg_(cfg) {
  TM_CHECK(cfg_.walkers >= 1, "search needs at least one walker");
  TM_CHECK(cfg_.elites >= 1, "search needs room for at least one elite");
  walkers_.resize(static_cast<std::size_t>(cfg_.walkers));
}

void AdversarySearch::run(long long evaluations) {
  TM_CHECK(evaluations >= 0, "negative evaluation budget");
  target_ += evaluations;
  while (evals_ < target_) step();
}

void AdversarySearch::step() {
  const long long g = generation_++;
  const int w_count = cfg_.walkers;

  // Propose serially (mutation is microseconds; evaluation is the cost),
  // then evaluate every proposal in parallel. run_trials owns one result
  // slot per index and folds on the calling thread, so the outcome is
  // independent of TIMING_THREADS.
  std::vector<Candidate> proposals(static_cast<std::size_t>(w_count));
  for (int w = 0; w < w_count; ++w) {
    const std::size_t wi = static_cast<std::size_t>(w);
    if (!walkers_[wi].inited) {
      proposals[wi] = seed_candidate(cfg_.mut, stream(cfg_.seed, kSeedSalt, g, w));
      continue;
    }
    Rng rng(stream(cfg_.seed, kMutateSalt, g, w));
    if (rng.bernoulli(kRestartP)) {
      // A fresh uniform draw: the hunt strictly contains sampling.
      proposals[wi] = seed_candidate(cfg_.mut, stream(cfg_.seed, kSeedSalt, g, w));
      continue;
    }
    if (!elites_.empty() && rng.bernoulli(kExploitP)) {
      const std::size_t e = rng.uniform_int(elites_.size());
      proposals[wi] = mutate(elites_[e].candidate, cfg_.mut, rng);
      continue;
    }
    proposals[wi] = mutate(walkers_[wi].current, cfg_.mut, rng);
  }
  const std::vector<Fitness> fits = run_trials<Fitness>(
      static_cast<std::size_t>(w_count),
      [&](std::size_t w) { return evaluate(proposals[w], cfg_.eval); });
  evals_ += w_count;

  const double temp = temperature(g);
  for (int w = 0; w < w_count; ++w) {
    const std::size_t wi = static_cast<std::size_t>(w);
    const Fitness& f = fits[wi];
    const bool rejected = f.score <= kRejectScore;
    const bool novel =
        !rejected && seen_signatures_.insert(f.signature).second;
    const double adjusted = f.score + (novel ? kNoveltyBonus : 0.0);
    if (!rejected) offer_elite(proposals[wi], f, w);

    Walker& walker = walkers_[wi];
    if (!walker.inited) {
      walker.inited = true;
      walker.current = proposals[wi];
      walker.fitness = f;
      walker.adjusted = adjusted;
      continue;
    }
    if (rejected) continue;
    bool accept = adjusted >= walker.adjusted;
    if (!accept) {
      Rng coin(stream(cfg_.seed, kAcceptSalt, g, w));
      accept = coin.uniform() < std::exp((adjusted - walker.adjusted) / temp);
    }
    if (accept) {
      walker.current = proposals[wi];
      walker.fitness = f;
      walker.adjusted = adjusted;
    }
  }
}

void AdversarySearch::offer_elite(const Candidate& c, const Fitness& f,
                                  int walker) {
  const std::uint64_t key = candidate_hash(c);
  if (!elite_hashes_.insert(key).second) return;  // same adversary, same score
  Elite e;
  e.candidate = c;
  e.fitness = f;
  e.generation = generation_ - 1;
  e.walker = walker;
  elites_.push_back(std::move(e));
  std::stable_sort(elites_.begin(), elites_.end(),
                   [](const Elite& a, const Elite& b) {
                     if (a.fitness.score != b.fitness.score) {
                       return a.fitness.score > b.fitness.score;
                     }
                     if (a.generation != b.generation) {
                       return a.generation < b.generation;
                     }
                     if (a.walker != b.walker) return a.walker < b.walker;
                     return candidate_hash(a.candidate) <
                            candidate_hash(b.candidate);
                   });
  while (static_cast<int>(elites_.size()) > cfg_.elites) {
    elite_hashes_.erase(candidate_hash(elites_.back().candidate));
    elites_.pop_back();
  }
}

}  // namespace timing::adversary

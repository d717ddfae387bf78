// The hunt: simulated annealing over W independent walkers with a
// shared elite pool and novelty credit.
//
// Each generation every walker proposes one mutation of its current
// candidate (generation 0 proposes fresh random seeds); all W proposals
// are evaluated in parallel via common/parallel's run_trials, then the
// bookkeeping — novelty, Metropolis acceptance, elite insertion — runs
// sequentially in walker order on the calling thread. Every random draw
// comes from a counter-based sub-stream keyed by (generation, walker),
// and the temperature is a pure function of the generation index, so a
// search run is bit-identical for any TIMING_THREADS.
//
// run(evaluations) RAISES A TARGET rather than adding a fixed count:
// run(1000) twice and run(2000) once perform the identical generation
// sequence, which is what makes resumed and single-shot budgets produce
// byte-identical elite pools and archives.
//
// Acceptance uses score + novelty bonus (unseen coverage signature), so
// walkers drift toward unexplored failure shapes; elites rank by RAW
// score only, keeping the archive and the shrinker free of exploration
// noise.
//
// Two proposal kinds besides plain mutation keep the hunt global:
// restarts (a fresh uniform seed candidate, so the search never covers
// less of the space than sampling does) and elite exploits (mutate a
// current elite instead of the walker's own chain, concentrating budget
// around the best basins found so far). The annealing schedule, the
// novelty bonus and both proposal probabilities are constants in
// search.cpp.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "adversary/fitness.hpp"
#include "adversary/mutate.hpp"

namespace timing::adversary {

struct SearchConfig {
  MutationConfig mut;
  EvalConfig eval;
  /// Root of the search's RNG sub-streams (mutations, seeds, acceptance).
  std::uint64_t seed = 1;
  int walkers = 16;
  int elites = 8;
};

struct Elite {
  Candidate candidate;
  Fitness fitness;
  long long generation = 0;  ///< when it was found
  int walker = 0;
};

class AdversarySearch {
 public:
  explicit AdversarySearch(SearchConfig cfg);

  /// Raise the evaluation target by `evaluations` and run whole
  /// generations (walkers evaluations each) until it is met. Calling
  /// run(a) then run(b) is byte-identical to run(a + b).
  void run(long long evaluations);

  /// Best-first: descending score, ties to the earlier (generation,
  /// walker), then to the smaller candidate hash.
  const std::vector<Elite>& elites() const noexcept { return elites_; }
  const Elite* best() const noexcept {
    return elites_.empty() ? nullptr : &elites_.front();
  }

  long long evaluations() const noexcept { return evals_; }
  long long generations() const noexcept { return generation_; }
  std::size_t signatures_seen() const noexcept {
    return seen_signatures_.size();
  }

 private:
  void step();
  void offer_elite(const Candidate& c, const Fitness& f, int walker);

  struct Walker {
    bool inited = false;
    Candidate current;
    Fitness fitness;
    double adjusted = kRejectScore;  ///< score + novelty at acceptance time
  };

  SearchConfig cfg_;
  std::vector<Walker> walkers_;
  std::vector<Elite> elites_;
  std::unordered_set<std::uint64_t> seen_signatures_;
  std::unordered_set<std::uint64_t> elite_hashes_;
  long long generation_ = 0;
  long long evals_ = 0;
  long long target_ = 0;
};

}  // namespace timing::adversary

// Adversary scenarios: the fitness-guided hunt (adversary/search) and
// the archived-plan regression replay (chaos/regression).
//
// adversary/search runs the simulated-annealing hunt over the fault-plan
// grammar for one (model, algorithm) pair, shrinks the top elites to
// minimal replayable specs, optionally archives them (archive=DIR), and
// — when baseline=N is set — asserts the hunt strictly beat the best of
// N uniform random_fault_plan samples evaluated under the SAME fixed
// evaluation seed. That comparison is the subsystem's reason to exist:
// sampling finds average-case schedules, search finds adversarial ones.
//
// chaos/regression reloads every *.plan in the archive directory and
// re-runs each entry's recorded evaluation. Evaluation is a pure
// function of (candidate, eval config), so verdict, decision round and
// score must reproduce exactly; any drift is a behavior change in the
// engine, injector or protocols and fails the gate.
#include <algorithm>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "adversary/archive.hpp"
#include "adversary/search.hpp"
#include "adversary/shrink.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "fault/chaos.hpp"
#include "models/timing_model.hpp"
#include "scenario/runners.hpp"

namespace timing::scenario {

namespace {

/// Sub-stream salts: the hunt, the fixed evaluation seed, the uniform
/// baseline and the polish pass draw from disjoint families of
/// spec.seed.
constexpr std::uint64_t kEvalSalt = 0xe7a1d;
constexpr std::uint64_t kBaselineSalt = 0xba5e;
constexpr std::uint64_t kPolishSalt = 0x90115a;

/// Elites shrunk, polished (and archived) per hunt.
constexpr int kShrinkTop = 3;

/// Fraction of the evaluation budget reserved for the greedy polish
/// pass around the shrunk elites (the rest drives the annealer).
constexpr int kPolishDivisor = 8;

adversary::MutationConfig mutation_config(const ScenarioSpec& spec,
                                          ProcessId leader) {
  adversary::MutationConfig mut;
  mut.n = spec.n;
  mut.leader = leader;
  mut.algorithm = spec.algorithm;
  mut.base_links = link_model_matrix(spec);
  return mut;
}

adversary::EvalConfig eval_config(const ScenarioSpec& spec, ProcessId leader) {
  adversary::EvalConfig eval;
  eval.algorithm = spec.algorithm;
  eval.n = spec.n;
  eval.leader = leader;
  eval.pre_gsr_p = spec.iid_p;
  eval.eval_seed = substream_seed(spec.seed, kEvalSalt);
  eval.samples = spec.runs;  // chaos executions averaged per candidate
  eval.min_rounds = spec.rounds_per_run;
  return eval;
}

int statements(const fault::FaultPlan& plan) {
  return static_cast<int>(plan.events.size()) - (plan.gsr >= 1 ? 1 : 0);
}

}  // namespace

int run_adversary_search(const ScenarioSpec& spec, const RunContext& ctx) {
  const ProcessId leader = scenario_leader(spec);

  adversary::SearchConfig cfg;
  cfg.mut = mutation_config(spec, leader);
  cfg.eval = eval_config(spec, leader);
  cfg.seed = spec.seed;

  adversary::AdversarySearch search(cfg);
  search.run(spec.budget - spec.budget / kPolishDivisor);

  if (search.elites().empty()) {
    std::cerr << "error: the hunt produced no scorable candidate (every "
                 "evaluation was rejected)\n";
    return 1;
  }

  // Shrink the top elites to minimal replayable specs, spend whatever
  // remains of the evaluation budget polishing each one (greedy local
  // intensification), and shrink again so the archive stays minimal.
  // Ranking can change when polish uncovers extra score, so re-sort.
  struct Winner {
    adversary::ShrinkResult shrunk;
    adversary::Elite elite;
    int polish_evals = 0;
    int polish_gains = 0;
  };
  const int top = std::min<int>(kShrinkTop,
                                static_cast<int>(search.elites().size()));
  const long long polish_total =
      std::max<long long>(0, spec.budget - search.evaluations());
  const int polish_each = static_cast<int>(polish_total / top);
  long long polish_spent = 0;
  std::vector<Winner> winners;
  for (int i = 0; i < top; ++i) {
    Winner w;
    w.elite = search.elites()[static_cast<std::size_t>(i)];
    w.shrunk = adversary::shrink(w.elite.candidate, cfg.mut, cfg.eval);
    const adversary::PolishResult p = adversary::polish(
        w.shrunk.candidate, cfg.mut, cfg.eval,
        substream_seed(spec.seed ^ kPolishSalt, static_cast<std::uint64_t>(i)),
        polish_each);
    polish_spent += p.evaluations;
    w.polish_evals = p.evaluations;
    w.polish_gains = p.improvements;
    if (p.fitness.score > w.shrunk.fitness.score) {
      w.shrunk = adversary::shrink(p.candidate, cfg.mut, cfg.eval);
    }
    winners.push_back(std::move(w));
  }
  std::stable_sort(winners.begin(), winners.end(),
                   [](const Winner& a, const Winner& b) {
                     return a.shrunk.fitness.score > b.shrunk.fitness.score;
                   });

  Table t({"rank", "score", "verdict", "mean delay", "decided@", "gsr",
           "statements", "minimized", "found@"});
  for (std::size_t i = 0; i < winners.size(); ++i) {
    const Winner& w = winners[i];
    t.add_row({Table::integer(static_cast<int>(i) + 1),
               Table::num(w.shrunk.fitness.score, 1),
               adversary::verdict_string(w.shrunk.fitness),
               Table::num(w.shrunk.fitness.delay, 2),
               Table::integer(static_cast<int>(w.shrunk.fitness.decision_round)),
               Table::integer(static_cast<int>(w.shrunk.candidate.plan.gsr)),
               Table::integer(statements(w.elite.candidate.plan)) + " -> " +
                   Table::integer(statements(w.shrunk.candidate.plan)),
               Table::integer(w.shrunk.steps) + " steps / " +
                   Table::integer(w.shrunk.evaluations) + " evals",
               "g" + std::to_string(w.elite.generation) + "/w" +
                   std::to_string(w.elite.walker)});
  }
  ctx.emit(t, "Adversary hunt: algorithm " + algorithm_key(spec.algorithm) +
                  " under " + to_string(fault::native_model(spec.algorithm)) +
                  ", n = " + std::to_string(spec.n) + ", leader " +
                  std::to_string(leader) + ", " +
                  std::to_string(search.evaluations()) + " evaluations (" +
                  std::to_string(search.generations()) + " generations, " +
                  std::to_string(search.signatures_seen()) +
                  " distinct coverage signatures)");

  const Winner& best = winners.front();
  ctx.os() << "\nwinning adversary (minimized, score "
           << Table::num(best.shrunk.fitness.score, 1) << ", verdict "
           << adversary::verdict_string(best.shrunk.fitness) << "):\n"
           << best.shrunk.candidate.plan.spec() << "\n";
  if (!best.shrunk.candidate.link_models.all_sync()) {
    ctx.os() << "link models: " << best.shrunk.candidate.link_models.spec()
             << "\n";
  }
  ctx.os() << "replay: timing_lab replay \""
           << fault::inline_spec(best.shrunk.candidate.plan)
           << "\" algorithm="
           << algorithm_key(spec.algorithm) << " n=" << spec.n
           << " leader=" << leader << " iid_p=" << Table::num(spec.iid_p, 2)
           << " seed=" << cfg.eval.eval_seed << "\n";

  if (!spec.archive.empty()) {
    // Two elites can shrink to the same minimized adversary: archive and
    // report each distinct entry once.
    std::set<std::string> archived;
    for (const Winner& w : winners) {
      const adversary::ArchiveEntry entry = adversary::make_archive_entry(
          w.shrunk.candidate, w.shrunk.fitness, cfg.eval);
      if (!archived.insert(adversary::entry_stem(entry)).second) continue;
      std::string path;
      const std::string err =
          adversary::write_archive_entry(spec.archive, entry, &path);
      if (!err.empty()) {
        std::cerr << "error: " << err << "\n";
        return 1;
      }
      ctx.os() << "archived: " << path << "\n";
    }
  }

  if (spec.baseline > 0) {
    // The hunt must strictly beat uniform sampling at equal evaluation
    // conditions: same seed family, same fixed evaluation seed.
    struct Sample {
      double score = adversary::kRejectScore;
      double delay = 0.0;
    };
    const auto samples = run_trials<Sample>(
        static_cast<std::size_t>(spec.baseline), [&](std::size_t i) {
          const adversary::Candidate c = adversary::seed_candidate(
              cfg.mut, substream_seed(spec.seed ^ kBaselineSalt, i));
          const adversary::Fitness f = adversary::evaluate(c, cfg.eval);
          return Sample{f.score, f.delay};
        });
    Sample uniform_best;
    for (const Sample& s : samples) {
      if (s.score > uniform_best.score) uniform_best = s;
    }
    const double hunt_best = best.shrunk.fitness.score;
    ctx.os() << "\nbaseline: best of " << spec.baseline
             << " uniform random plans scored "
             << Table::num(uniform_best.score, 1) << " ("
             << Table::num(uniform_best.delay, 2)
             << " mean rounds past gsr); the hunt scored "
             << Table::num(hunt_best, 1) << " with "
             << (search.evaluations() + polish_spent) << " evaluations\n";
    if (hunt_best <= uniform_best.score) {
      ctx.os() << "FAIL: the hunt did not beat uniform sampling\n";
      return 1;
    }
    ctx.os() << "the hunt beat uniform sampling by "
             << Table::num(hunt_best - uniform_best.score, 1) << "\n";
  }
  return 0;
}

int run_chaos_regression(const ScenarioSpec& spec, const RunContext& ctx) {
  if (spec.archive.empty()) {
    std::cerr << "error: chaos/regression needs archive=DIR\n";
    return 1;
  }
  std::vector<adversary::ArchiveEntry> entries;
  const std::string err = adversary::load_archive(spec.archive, entries);
  if (!err.empty()) {
    std::cerr << "error: " << err << "\n";
    return 1;
  }
  if (entries.empty()) {
    std::cerr << "error: no *.plan entries in " << spec.archive << "\n";
    return 1;
  }

  // Replays are independent; evaluation is pure, so the fold is
  // deterministic for any TIMING_THREADS.
  const auto replayed = run_trials<adversary::Fitness>(
      entries.size(), [&](std::size_t i) {
        return adversary::evaluate(entries[i].candidate, entries[i].eval);
      });

  Table t({"entry", "algorithm", "verdict", "delay", "decided@", "score",
           "match"});
  int mismatches = 0;
  std::vector<std::string> reports;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const adversary::ArchiveEntry& e = entries[i];
    const adversary::Fitness& f = replayed[i];
    const bool match = e.verdict == adversary::verdict_string(f) &&
                       e.delay == f.delay &&
                       e.decision_round == f.decision_round &&
                       e.score == f.score;
    if (!match) {
      ++mismatches;
      reports.push_back(
          e.name + ": recorded verdict=" + e.verdict + " delay=" +
          Table::num(e.delay, 3) + " decided@" +
          std::to_string(e.decision_round) + ", replayed verdict=" +
          std::string(adversary::verdict_string(f)) + " delay=" +
          Table::num(f.delay, 3) + " decided@" +
          std::to_string(f.decision_round));
    }
    t.add_row({e.name, algorithm_key(e.eval.algorithm),
               adversary::verdict_string(f), Table::num(f.delay, 2),
               Table::integer(static_cast<int>(f.decision_round)),
               Table::num(f.score, 1), match ? "yes" : "NO"});
  }
  ctx.emit(t, "Adversary regression: " + std::to_string(entries.size()) +
                  " archived plan(s) from " + spec.archive);

  if (mismatches > 0) {
    ctx.os() << "\n" << mismatches << " replay mismatch(es):\n";
    for (const std::string& r : reports) ctx.os() << "  " << r << "\n";
    return 1;
  }
  ctx.os() << "\nAll " << entries.size()
           << " archived adversaries replayed to their recorded verdict "
              "and fitness.\n";
  return 0;
}

}  // namespace timing::scenario

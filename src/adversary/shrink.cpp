#include "adversary/shrink.hpp"

#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace timing::adversary {

namespace {

using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultPlan;

bool windowed(FaultKind k) {
  return k == FaultKind::kPartition || k == FaultKind::kDrop ||
         k == FaultKind::kDelay || k == FaultKind::kSuppressLeader;
}

std::size_t recover_of(const FaultPlan& p, std::size_t crash_idx) {
  for (std::size_t j = crash_idx + 1; j < p.events.size(); ++j) {
    if (p.events[j].kind == FaultKind::kRecover &&
        p.events[j].proc == p.events[crash_idx].proc) {
      return j;
    }
  }
  return p.events.size();
}

}  // namespace

ShrinkResult shrink(const Candidate& start, const MutationConfig& mcfg,
                    const EvalConfig& ecfg) {
  ShrinkResult out;
  out.candidate = start;
  out.fitness = evaluate(out.candidate, ecfg);
  out.evaluations = 1;
  double target = out.fitness.score;

  // Try one edit; adopt it when it validates and loses no score.
  auto attempt = [&](Candidate next) -> bool {
    next.plan.source.clear();
    if (!fault::validate(next.plan, mcfg.n, mcfg.leader).empty()) return false;
    const Fitness f = evaluate(next, ecfg);
    ++out.evaluations;
    if (f.score < target) return false;
    target = f.score;
    out.candidate = std::move(next);
    out.fitness = f;
    ++out.steps;
    return true;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    const FaultPlan& plan = out.candidate.plan;

    // 1. Drop whole statements, largest simplification first.
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
      if (plan.events[i].kind == FaultKind::kGsr) continue;
      Candidate next = out.candidate;
      if (plan.events[i].kind == FaultKind::kCrash) {
        const std::size_t j = recover_of(plan, i);
        if (j < plan.events.size()) {
          next.plan.events.erase(next.plan.events.begin() +
                                 static_cast<std::ptrdiff_t>(j));
        }
      }
      next.plan.events.erase(next.plan.events.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (attempt(std::move(next))) {
        changed = true;
        break;
      }
    }
    if (changed) continue;

    // 2. Narrow windows one round from either end.
    for (std::size_t i = 0; i < plan.events.size() && !changed; ++i) {
      if (!windowed(plan.events[i].kind)) continue;
      if (plan.events[i].to - plan.events[i].from <= 1) continue;
      for (int end = 0; end < 2 && !changed; ++end) {
        Candidate next = out.candidate;
        FaultEvent& e = next.plan.events[i];
        if (end == 0) {
          e.from += 1;
        } else {
          e.to -= 1;
        }
        changed = attempt(std::move(next));
      }
    }
    if (changed) continue;

    // 3. Pull stabilization earlier (a stronger adversary: the same
    // delay with less pre-gsr runway).
    if (plan.gsr > 3) {
      Candidate next = out.candidate;
      next.plan.gsr -= 1;
      next.plan.events.back().from = next.plan.gsr;
      changed = attempt(std::move(next));
    }
    if (changed) continue;

    // 4. Upgrade degraded links back toward sync.
    for (ProcessId d = 0; d < mcfg.n && !changed; ++d) {
      for (ProcessId s = 0; s < mcfg.n && !changed; ++s) {
        if (d == s) continue;
        const LinkModelClass cls = out.candidate.link_models.at(d, s);
        if (cls == LinkModelClass::kSync) continue;
        Candidate next = out.candidate;
        next.link_models.set(d, s,
                             static_cast<LinkModelClass>(
                                 static_cast<int>(cls) - 1));
        changed = attempt(std::move(next));
      }
    }
  }
  return out;
}

PolishResult polish(const Candidate& start, const MutationConfig& mcfg,
                    const EvalConfig& ecfg, std::uint64_t seed, int budget) {
  PolishResult out;
  out.candidate = start;
  out.fitness = evaluate(start, ecfg);
  Rng rng(seed);
  for (int i = 0; i < budget; ++i) {
    Candidate next = mutate(out.candidate, mcfg, rng);
    if (structurally_equal(next, out.candidate)) continue;  // no eval spent
    const Fitness f = evaluate(next, ecfg);
    ++out.evaluations;
    if (f.score >= out.fitness.score) {
      if (f.score > out.fitness.score) ++out.improvements;
      out.candidate = std::move(next);
      out.fitness = f;
    }
  }
  return out;
}

}  // namespace timing::adversary

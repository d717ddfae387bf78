#include "adversary/mutate.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "fault/chaos.hpp"

namespace timing::adversary {

namespace {

using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultPlan;

/// Most non-gsr statements an addition may grow a plan to.
constexpr int kMaxEvents = 12;

/// Inclusive uniform draw in [lo, hi].
Round rand_round(Rng& rng, Round lo, Round hi) {
  TM_CHECK(lo <= hi, "empty round range");
  return lo + static_cast<Round>(
                  rng.uniform_int(static_cast<std::uint64_t>(hi - lo + 1)));
}

ProcessId rand_proc(Rng& rng, int n) {
  return static_cast<ProcessId>(rng.uniform_int(static_cast<std::uint64_t>(n)));
}

bool windowed(FaultKind k) {
  return k == FaultKind::kPartition || k == FaultKind::kDrop ||
         k == FaultKind::kDelay || k == FaultKind::kSuppressLeader;
}

int non_gsr_events(const FaultPlan& p) {
  int c = 0;
  for (const FaultEvent& e : p.events) {
    if (e.kind != FaultKind::kGsr) ++c;
  }
  return c;
}

/// The gsr marker is always the last event (validate() enforces it);
/// additions go right before it.
void insert_before_gsr(FaultPlan& p, FaultEvent e) {
  p.events.insert(p.events.end() - 1, std::move(e));
}

/// A fault round in [1, gsr - 1], biased toward the rounds just before
/// stabilization: damage inflicted there is what the protocol still
/// carries when the bound clock starts, so that is where the worst
/// schedules live.
Round rand_fault_round(Rng& rng, Round gsr) {
  if (gsr >= 3 && rng.bernoulli(0.5)) {
    return rand_round(rng, std::max<Round>(1, gsr - 3), gsr - 1);
  }
  return rand_round(rng, 1, gsr - 1);
}

/// [from, to) window inside [1, gsr], with the same late bias: half the
/// draws hug gsr from below.
std::pair<Round, Round> rand_window(Rng& rng, Round gsr) {
  if (gsr >= 3 && rng.bernoulli(0.5)) {
    const Round from = rand_round(rng, std::max<Round>(1, gsr - 4), gsr - 1);
    return {from, gsr};
  }
  const Round from = rand_round(rng, 1, gsr - 1);
  const Round to = rand_round(rng, from + 1, gsr);
  return {from, to};
}

/// A two-group partition cut; empty groups mean the draw failed.
std::vector<std::vector<ProcessId>> rand_cut(Rng& rng, int n) {
  std::vector<ProcessId> a, b;
  for (ProcessId p = 0; p < n; ++p) (rng.bernoulli(0.5) ? a : b).push_back(p);
  if (a.empty() || b.empty()) return {};
  return {a, b};
}

/// Indices of non-gsr events; empty when the plan is bare.
std::vector<std::size_t> editable(const FaultPlan& p) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < p.events.size(); ++i) {
    if (p.events[i].kind != FaultKind::kGsr) out.push_back(i);
  }
  return out;
}

/// The matching recover for a crash event, if any: the first recover of
/// the same process after it.
std::size_t recover_of(const FaultPlan& p, std::size_t crash_idx) {
  for (std::size_t j = crash_idx + 1; j < p.events.size(); ++j) {
    if (p.events[j].kind == FaultKind::kRecover &&
        p.events[j].proc == p.events[crash_idx].proc) {
      return j;
    }
  }
  return p.events.size();
}

enum class Op {
  kAddCrash,
  kAddRecoverableCrash,
  kAddPartition,
  kAddDrop,
  kAddDelay,
  kAddSuppress,
  kRemove,
  kShift,
  kResize,
  kShiftGsr,
  kRetarget,
  kPerturb,
  kDegradeLink,
  kUpgradeLink,
};

constexpr Op kPlanOps[] = {
    Op::kAddCrash, Op::kAddRecoverableCrash, Op::kAddPartition, Op::kAddDrop,
    Op::kAddDelay, Op::kAddSuppress,         Op::kRemove,       Op::kShift,
    Op::kResize,   Op::kShiftGsr,            Op::kRetarget,     Op::kPerturb,
};
constexpr Op kLinkOps[] = {Op::kDegradeLink, Op::kUpgradeLink};

/// Apply one op in place; false when the op does not apply to this
/// candidate (e.g. nothing to remove). The caller validates the result.
bool apply(Op op, Candidate& c, const MutationConfig& cfg, Rng& rng) {
  FaultPlan& p = c.plan;
  const Round gsr = p.gsr;
  switch (op) {
    case Op::kAddCrash: {
      if (non_gsr_events(p) >= kMaxEvents) return false;
      FaultEvent e;
      e.kind = FaultKind::kCrash;
      e.proc = rand_proc(rng, cfg.n);
      e.from = rand_fault_round(rng, gsr);
      insert_before_gsr(p, e);
      return true;
    }
    case Op::kAddRecoverableCrash: {
      if (non_gsr_events(p) + 1 >= kMaxEvents || gsr < 3) return false;
      FaultEvent crash;
      crash.kind = FaultKind::kCrash;
      crash.proc = rand_proc(rng, cfg.n);
      crash.from = rand_fault_round(rng, gsr);
      FaultEvent recover;
      recover.kind = FaultKind::kRecover;
      recover.proc = crash.proc;
      // Half the recoveries land exactly at gsr: a process that comes
      // back with empty state at the instant the bound clock starts.
      recover.from = rng.bernoulli(0.5)
                         ? gsr
                         : rand_round(rng, crash.from + 1, gsr);
      insert_before_gsr(p, crash);
      insert_before_gsr(p, recover);
      return true;
    }
    case Op::kAddPartition: {
      if (non_gsr_events(p) >= kMaxEvents) return false;
      FaultEvent e;
      e.kind = FaultKind::kPartition;
      e.groups = rand_cut(rng, cfg.n);
      if (e.groups.empty()) return false;
      std::tie(e.from, e.to) = rand_window(rng, gsr);
      insert_before_gsr(p, e);
      return true;
    }
    case Op::kAddDrop: {
      if (non_gsr_events(p) >= kMaxEvents) return false;
      FaultEvent e;
      e.kind = FaultKind::kDrop;
      e.src = rng.bernoulli(0.25) ? kNoProcess : rand_proc(rng, cfg.n);
      e.dst = rng.bernoulli(0.25) ? kNoProcess : rand_proc(rng, cfg.n);
      if (e.src != kNoProcess && e.src == e.dst) return false;
      e.prob = 0.25 + rng.uniform() * 0.75;
      std::tie(e.from, e.to) = rand_window(rng, gsr);
      insert_before_gsr(p, e);
      return true;
    }
    case Op::kAddDelay: {
      if (non_gsr_events(p) >= kMaxEvents) return false;
      FaultEvent e;
      e.kind = FaultKind::kDelay;
      e.src = rand_proc(rng, cfg.n);
      e.dst = rand_proc(rng, cfg.n);
      if (e.src == e.dst) return false;
      e.extra_ms = static_cast<double>(rand_round(rng, 1, 5));
      std::tie(e.from, e.to) = rand_window(rng, gsr);
      insert_before_gsr(p, e);
      return true;
    }
    case Op::kAddSuppress: {
      if (non_gsr_events(p) >= kMaxEvents) return false;
      FaultEvent e;
      e.kind = FaultKind::kSuppressLeader;
      std::tie(e.from, e.to) = rand_window(rng, gsr);
      insert_before_gsr(p, e);
      return true;
    }
    case Op::kRemove: {
      const auto idx = editable(p);
      if (idx.empty()) return false;
      const std::size_t i = idx[rng.uniform_int(idx.size())];
      if (p.events[i].kind == FaultKind::kCrash) {
        // The recover, if any, goes too — it may not dangle.
        const std::size_t j = recover_of(p, i);
        if (j < p.events.size()) {
          p.events.erase(p.events.begin() + static_cast<std::ptrdiff_t>(j));
        }
      }
      p.events.erase(p.events.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
    case Op::kShift: {
      const auto idx = editable(p);
      if (idx.empty()) return false;
      const std::size_t i = idx[rng.uniform_int(idx.size())];
      Round d = rand_round(rng, -3, 3);
      if (d == 0) d = 1;
      FaultEvent& e = p.events[i];
      e.from += d;
      if (windowed(e.kind)) e.to += d;
      return true;
    }
    case Op::kResize: {
      std::vector<std::size_t> idx;
      for (std::size_t i = 0; i < p.events.size(); ++i) {
        if (windowed(p.events[i].kind)) idx.push_back(i);
      }
      if (idx.empty()) return false;
      FaultEvent& e = p.events[idx[rng.uniform_int(idx.size())]];
      switch (rng.uniform_int(4)) {
        case 0: e.from += 1; break;
        case 1: e.from -= 1; break;
        case 2: e.to += 1; break;
        default: e.to -= 1; break;
      }
      return true;
    }
    case Op::kShiftGsr: {
      Round d = rand_round(rng, -2, 2);
      if (d == 0) d = 1;
      const Round next = p.gsr + d;
      if (next < 3 || next > kMaxGsr) return false;
      p.gsr = next;
      p.events.back().from = next;  // the terminal marker mirrors the field
      return true;
    }
    case Op::kRetarget: {
      const auto idx = editable(p);
      if (idx.empty()) return false;
      const std::size_t i = idx[rng.uniform_int(idx.size())];
      FaultEvent& e = p.events[i];
      switch (e.kind) {
        case FaultKind::kCrash: {
          const ProcessId next = rand_proc(rng, cfg.n);
          const std::size_t j = recover_of(p, i);
          if (j < p.events.size()) p.events[j].proc = next;
          e.proc = next;
          return true;
        }
        case FaultKind::kRecover:
          return false;  // only moves with its crash
        case FaultKind::kPartition: {
          auto cut = rand_cut(rng, cfg.n);
          if (cut.empty()) return false;
          e.groups = std::move(cut);
          return true;
        }
        case FaultKind::kDrop:
        case FaultKind::kDelay: {
          const ProcessId src = rand_proc(rng, cfg.n);
          const ProcessId dst = rand_proc(rng, cfg.n);
          if (src == dst) return false;
          e.src = src;
          e.dst = dst;
          return true;
        }
        default:
          return false;
      }
    }
    case Op::kPerturb: {
      std::vector<std::size_t> idx;
      for (std::size_t i = 0; i < p.events.size(); ++i) {
        if (p.events[i].kind == FaultKind::kDrop ||
            p.events[i].kind == FaultKind::kDelay) {
          idx.push_back(i);
        }
      }
      if (idx.empty()) return false;
      FaultEvent& e = p.events[idx[rng.uniform_int(idx.size())]];
      if (e.kind == FaultKind::kDrop) {
        e.prob = std::clamp(e.prob + rng.uniform(-0.3, 0.3), 0.05, 1.0);
      } else {
        e.extra_ms = std::max(
            1.0, e.extra_ms + static_cast<double>(rand_round(rng, -2, 2)));
      }
      return true;
    }
    case Op::kDegradeLink:
    case Op::kUpgradeLink: {
      LinkModelMatrix& m = c.link_models;
      const bool down = op == Op::kDegradeLink;
      std::vector<std::pair<ProcessId, ProcessId>> idx;
      for (ProcessId d = 0; d < cfg.n; ++d) {
        for (ProcessId s = 0; s < cfg.n; ++s) {
          if (d == s) continue;
          const LinkModelClass cls = m.at(d, s);
          if (down ? cls != LinkModelClass::kAsync
                   : cls != LinkModelClass::kSync) {
            idx.emplace_back(d, s);
          }
        }
      }
      if (idx.empty()) return false;
      const auto [d, s] = idx[rng.uniform_int(idx.size())];
      const int step = static_cast<int>(m.at(d, s)) + (down ? 1 : -1);
      m.set(d, s, static_cast<LinkModelClass>(step));
      if (down &&
          !fault::granular_supports(fault::native_model(cfg.algorithm),
                                    cfg.leader, m, {})) {
        return false;  // would never owe liveness: not a meaningful score
      }
      return true;
    }
  }
  return false;
}

}  // namespace

Candidate seed_candidate(const MutationConfig& cfg, std::uint64_t seed) {
  Candidate c;
  c.plan = fault::random_fault_plan(cfg.n, cfg.leader, seed);
  c.link_models =
      cfg.base_links.n() == cfg.n ? cfg.base_links : LinkModelMatrix(cfg.n);
  return c;
}

Candidate mutate(const Candidate& parent, const MutationConfig& cfg, Rng& rng) {
  TM_CHECK(parent.plan.gsr >= 1 && !parent.plan.events.empty() &&
               parent.plan.events.back().kind == FaultKind::kGsr,
           "mutate() needs a plan closed by a gsr marker");
  const std::size_t plan_ops = std::size(kPlanOps);
  const std::size_t total_ops =
      plan_ops + (cfg.mutate_links ? std::size(kLinkOps) : 0);
  for (int attempt = 0; attempt < cfg.attempts; ++attempt) {
    const std::size_t pick = rng.uniform_int(total_ops);
    const Op op = pick < plan_ops ? kPlanOps[pick] : kLinkOps[pick - plan_ops];
    Candidate next = parent;
    if (!apply(op, next, cfg, rng)) continue;
    next.plan.source.clear();
    if (!fault::validate(next.plan, cfg.n, cfg.leader).empty()) continue;
    if (structurally_equal(next, parent)) continue;
    return next;
  }
  return parent;
}

}  // namespace timing::adversary

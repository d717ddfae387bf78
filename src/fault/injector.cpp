#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace timing::fault {

namespace {

constexpr Round kForever = std::numeric_limits<Round>::max();

/// Cap on injected lateness: far beyond any run horizon, far below the
/// int16 fate range.
constexpr Delay kMaxInjectedDelay = 16384;

bool in_window(Round k, Round from, Round to) noexcept {
  return k >= from && k < to;
}

/// Counter-based coin for drop rules: a pure function of (plan seed,
/// rule index, round, src, dst), so both backends — and every thread
/// count — flip the exact same coins. Fields are packed disjointly
/// (rounds < 2^24, pids < 2^20 in practice) and pushed through two
/// splitmix rounds via substream_seed.
double drop_coin(std::uint64_t seed, std::size_t rule, Round k,
                 ProcessId src, ProcessId dst) noexcept {
  const std::uint64_t cell = (static_cast<std::uint64_t>(k) << 40) ^
                             (static_cast<std::uint64_t>(src) << 20) ^
                             static_cast<std::uint64_t>(dst);
  std::uint64_t state = substream_seed(substream_seed(seed, rule), cell);
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

/// Membership lookup: index of p's group, or -1 when p is in none.
int group_of(const std::vector<std::vector<ProcessId>>& groups, ProcessId p) {
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (ProcessId q : groups[g]) {
      if (q == p) return static_cast<int>(g);
    }
  }
  return -1;
}

}  // namespace

FaultInjector::FaultInjector(const FaultPlan& plan, const InjectorConfig& cfg)
    : plan_(plan), cfg_(cfg) {
  TM_CHECK(cfg_.n >= 2, "injector needs n >= 2");
  TM_CHECK(cfg_.round_ms > 0.0, "round_ms must be positive");

  first_active_ = kForever;
  last_active_ = 0;
  perm_from_min_ = kForever;
  auto cover = [&](Round from, Round to) {
    first_active_ = std::min(first_active_, from);
    last_active_ = std::max(last_active_, to);
  };

  for (const FaultEvent& e : plan_.events) {
    switch (e.kind) {
      case FaultKind::kCrash:
        crash_spans_.push_back(CrashSpan{e.proc, e.from, kForever});
        cover(e.from, e.from + 1);
        break;
      case FaultKind::kRecover:
        for (CrashSpan& cs : crash_spans_) {
          if (cs.proc == e.proc && cs.to == kForever) cs.to = e.from;
        }
        cover(e.from, e.from + 1);
        break;
      case FaultKind::kPartition:
      case FaultKind::kDrop:
      case FaultKind::kDelay:
      case FaultKind::kSuppressLeader:
        cover(e.from, e.to);
        break;
      case FaultKind::kGsr:
        cover(e.from, e.from + 1);
        break;
    }
  }
  for (const CrashSpan& cs : crash_spans_) {
    if (cs.to == kForever) {
      has_permanent_ = true;
      perm_from_min_ = std::min(perm_from_min_, cs.from);
    } else {
      cover(cs.from, cs.to);
    }
  }
}

bool FaultInjector::active_in(Round k) const noexcept {
  return (k >= first_active_ && k < last_active_) ||
         (has_permanent_ && k >= perm_from_min_);
}

bool FaultInjector::crashed_in(ProcessId p, Round k) const noexcept {
  for (const CrashSpan& cs : crash_spans_) {
    if (cs.proc == p && in_window(k, cs.from, cs.to)) return true;
  }
  return false;
}

bool FaultInjector::partitioned(ProcessId src, ProcessId dst,
                                Round k) const noexcept {
  for (const FaultEvent& e : plan_.events) {
    if (e.kind != FaultKind::kPartition || !in_window(k, e.from, e.to)) {
      continue;
    }
    const int gs = group_of(e.groups, src);
    const int gd = group_of(e.groups, dst);
    if (gs >= 0 && gd >= 0 && gs != gd) return true;
  }
  return false;
}

bool FaultInjector::suppressed(ProcessId src, Round k) const noexcept {
  if (src != cfg_.leader) return false;
  for (const FaultEvent& e : plan_.events) {
    if (e.kind == FaultKind::kSuppressLeader && in_window(k, e.from, e.to)) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::drop_fires(Round k, ProcessId src,
                               ProcessId dst) const noexcept {
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (e.kind != FaultKind::kDrop || !in_window(k, e.from, e.to)) continue;
    if (e.src != kNoProcess && e.src != src) continue;
    if (e.dst != kNoProcess && e.dst != dst) continue;
    if (drop_coin(cfg_.seed, i, k, src, dst) < e.prob) return true;
  }
  return false;
}

double FaultInjector::extra_delay_ms(Round k, ProcessId src,
                                     ProcessId dst) const noexcept {
  double ms = 0.0;
  for (const FaultEvent& e : plan_.events) {
    if (e.kind != FaultKind::kDelay || !in_window(k, e.from, e.to)) continue;
    if (e.src != kNoProcess && e.src != src) continue;
    if (e.dst != kNoProcess && e.dst != dst) continue;
    ms += e.extra_ms;
  }
  return ms;
}

Delay FaultInjector::link_fate(Round k, ProcessId src,
                               ProcessId dst) const noexcept {
  if (src == dst) return 0;
  if (crashed_in(src, k) || crashed_in(dst, k) || partitioned(src, dst, k) ||
      suppressed(src, k) || drop_fires(k, src, dst)) {
    return kLost;
  }
  const double ms = extra_delay_ms(k, src, dst);
  if (ms <= 0.0) return 0;
  const double rounds = std::ceil(ms / cfg_.round_ms);
  return static_cast<Delay>(std::min<double>(
      std::max(1.0, rounds), static_cast<double>(kMaxInjectedDelay)));
}

void FaultInjector::emit_transitions(Round k) {
  if (cfg_.sink == nullptr) return;
  for (const FaultEvent& e : plan_.events) {
    if (e.from != k) continue;
    switch (e.kind) {
      case FaultKind::kCrash:
      case FaultKind::kRecover:
        TM_TRACE(cfg_.sink, TraceEvent::fault(
                                k, static_cast<std::uint8_t>(e.kind),
                                e.proc));
        break;
      case FaultKind::kGsr:
        TM_TRACE(cfg_.sink,
                 TraceEvent::fault(k, static_cast<std::uint8_t>(e.kind)));
        break;
      default:
        break;
    }
  }
}

template <class Matrix>
void FaultInjector::apply_impl(Round k, Matrix& a) {
  const int n = cfg_.n;
  TM_CHECK(a.n() == n, "matrix size does not match injector config");
  emit_transitions(k);

  // Crash isolation: the process is neither heard from nor hears anyone
  // (its self link stays timely; it simply takes steps into a void).
  for (const CrashSpan& cs : crash_spans_) {
    if (!in_window(k, cs.from, cs.to)) continue;
    for (ProcessId q = 0; q < n; ++q) {
      if (q == cs.proc) continue;
      a.set(cs.proc, q, kLost);
      a.set(q, cs.proc, kLost);
    }
  }

  // Windowed rules, in plan order; per-cell loops in fixed (src, dst)
  // order, so the emission sequence is deterministic.
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    switch (e.kind) {
      case FaultKind::kPartition: {
        if (!in_window(k, e.from, e.to)) break;
        TM_TRACE(cfg_.sink,
                 TraceEvent::fault(k, static_cast<std::uint8_t>(e.kind)));
        for (std::size_t g = 0; g < e.groups.size(); ++g) {
          for (std::size_t h = 0; h < e.groups.size(); ++h) {
            if (g == h) continue;
            for (ProcessId src : e.groups[g]) {
              for (ProcessId dst : e.groups[h]) {
                a.set(dst, src, kLost);
              }
            }
          }
        }
        break;
      }
      case FaultKind::kSuppressLeader: {
        if (!in_window(k, e.from, e.to) || cfg_.leader == kNoProcess) break;
        TM_TRACE(cfg_.sink,
                 TraceEvent::fault(k, static_cast<std::uint8_t>(e.kind),
                                   cfg_.leader));
        for (ProcessId dst = 0; dst < n; ++dst) {
          if (dst != cfg_.leader) a.set(dst, cfg_.leader, kLost);
        }
        break;
      }
      case FaultKind::kDrop: {
        if (!in_window(k, e.from, e.to)) break;
        for (ProcessId src = 0; src < n; ++src) {
          if (e.src != kNoProcess && e.src != src) continue;
          for (ProcessId dst = 0; dst < n; ++dst) {
            if (dst == src) continue;
            if (e.dst != kNoProcess && e.dst != dst) continue;
            if (drop_coin(cfg_.seed, i, k, src, dst) >= e.prob) continue;
            if (a.at(dst, src) == kLost) continue;  // nothing to drop
            a.set(dst, src, kLost);
            TM_TRACE(cfg_.sink,
                     TraceEvent::fault(k, static_cast<std::uint8_t>(e.kind),
                                       kNoProcess, src, dst));
          }
        }
        break;
      }
      case FaultKind::kDelay: {
        if (!in_window(k, e.from, e.to)) break;
        const double rounds = std::ceil(e.extra_ms / cfg_.round_ms);
        const Delay extra = static_cast<Delay>(std::min<double>(
            std::max(1.0, rounds), static_cast<double>(kMaxInjectedDelay)));
        for (ProcessId src = 0; src < n; ++src) {
          if (e.src != kNoProcess && e.src != src) continue;
          for (ProcessId dst = 0; dst < n; ++dst) {
            if (dst == src) continue;
            if (e.dst != kNoProcess && e.dst != dst) continue;
            const Delay cur = a.at(dst, src);
            if (cur == kLost) continue;  // lost stays lost
            const Delay nd = static_cast<Delay>(
                std::min<int>(cur + extra, kMaxInjectedDelay));
            a.set(dst, src, nd);
            TM_TRACE(cfg_.sink,
                     TraceEvent::fault(k, static_cast<std::uint8_t>(e.kind),
                                       kNoProcess, src, dst, extra));
          }
        }
        break;
      }
      default:
        break;
    }
  }
}

void FaultInjector::apply(Round k, LinkMatrix& a) { apply_impl(k, a); }
void FaultInjector::apply(Round k, PackedLinkMatrix& a) { apply_impl(k, a); }

void FaultInjectedSampler::sample_round(Round k, LinkMatrix& out) {
  inner_.sample_round(k, out);
  if (injector_.active_in(k)) injector_.apply(k, out);
}

void FaultInjectedSampler::sample_round(Round k, PackedLinkMatrix& out) {
  inner_.sample_round(k, out);
  if (injector_.active_in(k)) injector_.apply(k, out);
}

}  // namespace timing::fault

#include "models/schedule.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace timing {

namespace {

/// Post-GSR timeliness of the links the model does not require (before
/// the repair forces the required ones), unless the schedule is minimal.
constexpr double kPostGsrExtraP = 0.5;
/// Share of untimely messages that are lost rather than late.
constexpr double kUntimelyLossShare = 0.4;
/// Probability that a late message stays one more round late (up to
/// ScheduleSampler::kMaxLate rounds).
constexpr double kLateP = 0.4;

/// Timeliness of the links drawn from GSR on, before the repair.
double post_gsr_p(const ScheduleConfig& cfg) {
  return cfg.minimal ? 0.0 : kPostGsrExtraP;
}

}  // namespace

ScheduleSampler::ScheduleSampler(const ScheduleConfig& cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      pre_gsr_fates_(cfg.pre_gsr_p, kUntimelyLossShare, kLateP),
      post_gsr_fates_(post_gsr_p(cfg), kUntimelyLossShare, kLateP) {
  TM_CHECK(cfg_.n > 1, "schedule needs n > 1");
  TM_CHECK(cfg_.leader >= 0 && cfg_.leader < cfg_.n, "leader out of range");
  TM_CHECK(cfg_.gsr >= 1, "GSR is a round number >= 1");
  TM_CHECK(cfg_.crash_rounds.empty() ||
               static_cast<int>(cfg_.crash_rounds.size()) == cfg_.n,
           "crash_rounds must be empty or have n entries");
  TM_CHECK(cfg_.link_models.n() == 0 || cfg_.link_models.n() == cfg_.n,
           "link_models size must match the schedule's n");
  granular_ = cfg_.link_models.n() > 0 && !cfg_.link_models.all_sync();
  alive_set_.reserve(static_cast<std::size_t>(cfg_.n));
  candidates_.reserve(static_cast<std::size_t>(cfg_.n));
}

bool ScheduleSampler::alive(ProcessId i, Round k) const noexcept {
  if (cfg_.crash_rounds.empty()) return true;
  const Round c = cfg_.crash_rounds[static_cast<std::size_t>(i)];
  return c <= 0 || k < c;
}

Delay ScheduleSampler::untimely_fate() {
  if (rng_.bernoulli(kUntimelyLossShare)) return kLost;
  Delay d = 1;
  while (rng_.bernoulli(kLateP) && d < kMaxLate) ++d;
  return d;
}

void ScheduleSampler::fill_random(LinkMatrix& out, bool pre_gsr) {
  const double p = pre_gsr ? cfg_.pre_gsr_p : post_gsr_p(cfg_);
  for (ProcessId dst = 0; dst < cfg_.n; ++dst) {
    for (ProcessId src = 0; src < cfg_.n; ++src) {
      if (src == dst) {
        out.set(dst, src, 0);
      } else {
        out.set(dst, src, rng_.bernoulli(p) ? Delay{0} : untimely_fate());
      }
    }
  }
}

// The same draws, in the same order, as a table walk (sim/sampler.hpp).
void ScheduleSampler::fill_random(PackedLinkMatrix& out, bool pre_gsr) {
  (pre_gsr ? pre_gsr_fates_ : post_gsr_fates_).fill(rng_, out);
}

template <class Matrix>
void ScheduleSampler::repair_to_model(Matrix& out, Round k) {
  const int n = cfg_.n;
  const int maj = majority_size(n);

  alive_set_.clear();
  for (ProcessId i = 0; i < n; ++i) {
    if (alive(i, k)) alive_set_.push_back(i);
  }
  // The models' premise: fewer than n/2 crashes, so a majority of
  // processes is always alive.
  TM_CHECK(static_cast<int>(alive_set_.size()) >= maj,
           "schedule needs a correct majority");

  // Under a granular matrix only reliable links carry obligations (and
  // only they count towards forced quorums). required() is identically
  // true on the homogeneous path, so an all-sync matrix draws the exact
  // same RNG stream as no matrix at all.
  auto required = [&](ProcessId d, ProcessId s) {
    return !granular_ || cfg_.link_models.reliable(d, s);
  };

  // Force `dst`'s row to receive timely from at least `maj` ALIVE sources
  // (the self link always counts, matching the paper's footnote 1). With
  // a granular matrix the quorum may be unreachable — the reliable
  // in-degree caps it — in which case every reliable candidate is forced
  // and the deficit is the caller's problem (granular_supports() gates
  // the liveness expectation on exactly this).
  auto force_row_majority = [&](ProcessId dst) {
    int have = 0;
    candidates_.clear();
    for (ProcessId s : alive_set_) {
      if (!required(dst, s)) continue;
      if (out.timely(dst, s) || s == dst) {
        ++have;
      } else {
        candidates_.push_back(s);
      }
    }
    for (std::size_t i = candidates_.size(); i > 1; --i) {
      std::swap(candidates_[i - 1], candidates_[rng_.uniform_int(i)]);
    }
    for (ProcessId s : candidates_) {
      if (have >= maj) break;
      out.set(dst, s, 0);
      ++have;
    }
  };

  switch (cfg_.model) {
    case TimingModel::kEs:
      // All required links between correct processes timely.
      for (ProcessId d : alive_set_) {
        for (ProcessId s : alive_set_) {
          if (required(d, s)) out.set(d, s, 0);
        }
      }
      break;
    case TimingModel::kLm:
      for (ProcessId d = 0; d < n; ++d) {
        if (required(d, cfg_.leader)) out.set(d, cfg_.leader, 0);
      }
      for (ProcessId d : alive_set_) force_row_majority(d);
      break;
    case TimingModel::kWlm:
      for (ProcessId d = 0; d < n; ++d) {
        if (required(d, cfg_.leader)) out.set(d, cfg_.leader, 0);
      }
      force_row_majority(cfg_.leader);
      break;
    case TimingModel::kAfm: {
      if (granular_) {
        // All reliable alive<->alive links timely: meets both the
        // majority-destination and majority-source requirements wherever
        // the reliable plane still can (the circulant below may land
        // required mass on async links, which count for nothing).
        for (ProcessId d : alive_set_) {
          for (ProcessId s : alive_set_) {
            if (required(d, s)) out.set(d, s, 0);
          }
        }
      } else if (alive_set_.size() == static_cast<std::size_t>(n)) {
        // Failure-free: a rotated circulant gives every row and column a
        // majority with mobile timely sets.
        const int rot = static_cast<int>(rng_.uniform_int(n));
        for (ProcessId d = 0; d < n; ++d) {
          for (int off = 0; off < maj; ++off) {
            out.set(d, (d + rot + off) % n, 0);
          }
          out.set(d, d, 0);
        }
      } else {
        // With crashes, conservatively make all alive<->alive links
        // timely (satisfies both the majority-destination and the
        // majority-source requirements w.r.t. correct processes).
        for (ProcessId d : alive_set_) {
          for (ProcessId s : alive_set_) out.set(d, s, 0);
        }
      }
      break;
    }
  }
}

template <class Matrix>
void ScheduleSampler::sample(Round k, Matrix& out) {
  TM_CHECK(out.n() == cfg_.n, "matrix size must match the schedule's n");
  const bool pre_gsr = k < cfg_.gsr;
  fill_random(out, pre_gsr);
  if (!pre_gsr) repair_to_model(out, k);
}

void ScheduleSampler::sample_round(Round k, LinkMatrix& out) {
  sample(k, out);
}

void ScheduleSampler::sample_round(Round k, PackedLinkMatrix& out) {
  sample(k, out);
}

}  // namespace timing

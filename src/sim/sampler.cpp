#include "sim/sampler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.hpp"

namespace timing {

namespace {

/// Fate of one message with latency `ms` in rounds of `timeout_ms`.
Delay classify_latency(double ms, double timeout_ms,
                       int max_delay_rounds) noexcept {
  if (!std::isfinite(ms)) return kLost;
  if (ms <= timeout_ms) return 0;
  if (lost_in_flight(ms, timeout_ms, max_delay_rounds)) return kLost;
  // Rounds last `timeout`; a message sent at the start of round k with
  // latency L lands in round k + floor(L / timeout).
  return static_cast<Delay>(std::floor(ms / timeout_ms));
}

/// Timely and lost ranks of a message that misses the first timeout t[0]
/// (its latency is above t[0] or not finite).
struct LinkRanks {
  int timely = 0;
  int lost = 0;
};

LinkRanks rank_latency(double ms, const double* t, int m,
                       int max_delay_rounds) {
  if (!std::isfinite(ms)) return {m, m};
  // The count of timeouts below ms is the first index it is within.
  // Branch-free; the NaN guard above keeps NaN from counting as timely.
  LinkRanks r;
  for (int i = 0; i < m; ++i) r.timely += t[i] < ms ? 1 : 0;
  if (lost_in_flight(ms, t[0], max_delay_rounds)) {
    r.lost = static_cast<int>(
        std::partition_point(t + 1, t + r.timely,
                             [&](double timeout) {
                               return lost_in_flight(ms, timeout,
                                                     max_delay_rounds);
                             }) -
        t);
  }
  return r;
}

/// The maj-th smallest rank of a line (a row or a column) with `count`
/// required links, `nonzero` of them of rank > 0 gathered in line[0,
/// nonzero). Reorders the line.
int line_threshold(int* line, int count, int nonzero, int maj, int m) {
  if (count < maj) return m;  // the line can never reach a majority
  const int need = maj - (count - nonzero);  // among the nonzero ranks
  if (need <= 0) return 0;
  std::nth_element(line, line + (need - 1), line + nonzero);
  return line[need - 1];
}

}  // namespace

void RankTallies::reset(int m) {
  timely.assign(static_cast<std::size_t>(m) + 1, 0);
  lost.assign(static_cast<std::size_t>(m) + 1, 0);
}

std::vector<FusedRoundEval> RankTallies::fates() const {
  std::vector<FusedRoundEval> out;
  if (timely.empty()) return out;
  long long total = 0;
  for (const long long c : timely) total += c;
  out.resize(timely.size() - 1);
  long long timely_so_far = 0;
  long long not_lost = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    timely_so_far += timely[i];
    not_lost += lost[i];
    out[i].timely = timely_so_far;
    out[i].lost = total - not_lost;
    out[i].late = total - timely_so_far - out[i].lost;
  }
  return out;
}

RoundRanks rank_round(std::span<const double> latency, int n,
                      std::span<const double> sorted_timeouts,
                      int max_delay_rounds, ProcessId leader,
                      const GranularPlanes& classes, RankScratch& s,
                      RankTallies& tallies) {
  TM_CHECK(n >= 1 && latency.size() == static_cast<std::size_t>(n) * n,
           "latency plane size must be n x n");
  TM_CHECK(leader >= 0 && leader < n, "leader out of range");
  TM_CHECK(classes.n() == n, "link classes size must match the plane");
  const int m = static_cast<int>(sorted_timeouts.size());
  TM_CHECK(tallies.timely.size() == sorted_timeouts.size() + 1 &&
               tallies.lost.size() == sorted_timeouts.size() + 1,
           "rank tallies must be reset for the sweep");
  if (m == 0) {
    // No timeout to be timely at: nothing to rank.
    const long long messages = static_cast<long long>(n) * (n - 1);
    tallies.timely[0] += messages;
    tallies.lost[0] += messages;
    return RoundRanks{};
  }
  const double* t = sorted_timeouts.data();
  const int maj = majority_size(n);
  const auto cells = static_cast<std::size_t>(n) * n;
  const auto lines = static_cast<std::size_t>(n);
  s.rank.resize(cells);
  s.later.resize(cells);
  s.line.resize(lines);
  // Per row and per column, over required links: the max rank and how
  // many ranks are above 0.
  s.row_max.assign(lines, 0);
  s.row_nonzero.assign(lines, 0);
  s.col_max.assign(lines, 0);
  s.col_nonzero.assign(lines, 0);

  // A message within the first timeout has both ranks 0: timely at every
  // timeout, lost at none. That is the common case, so a branch-free
  // pass lists the other messages and only those are ranked.
  std::size_t later = 0;
  for (ProcessId dst = 0; dst < n; ++dst) {
    const std::size_t row = static_cast<std::size_t>(dst) * n;
    for (ProcessId src = 0; src < n; ++src) {
      const double ms = latency[row + src];
      s.rank[row + src] = 0;
      s.later[later] = {dst, src};
      const bool within = std::isfinite(ms) & (ms <= t[0]);
      later += (src != dst) & !within;
    }
  }
  std::array<int, GranularPlanes::kNumClasses> cls{};  // max rank per class
  for (std::size_t j = 0; j < later; ++j) {
    const auto [dst, src] = s.later[j];
    const std::size_t cell = static_cast<std::size_t>(dst) * n + src;
    const LinkRanks r = rank_latency(latency[cell], t, m, max_delay_rounds);
    ++tallies.timely[static_cast<std::size_t>(r.timely)];
    ++tallies.lost[static_cast<std::size_t>(r.lost)];
    s.rank[cell] = r.timely;
    const auto link_class =
        static_cast<std::size_t>(classes.class_of(dst, src));
    cls[link_class] = std::max(cls[link_class], r.timely);
    if (link_class >= GranularPlanes::kNumRequiredClasses) continue;
    const auto d = static_cast<std::size_t>(dst);
    const auto c = static_cast<std::size_t>(src);
    s.row_max[d] = std::max(s.row_max[d], r.timely);
    ++s.row_nonzero[d];
    s.col_max[c] = std::max(s.col_max[c], r.timely);
    ++s.col_nonzero[c];
  }
  const long long first_timely =
      static_cast<long long>(n) * (n - 1) - static_cast<long long>(later);
  tallies.timely[0] += first_timely;
  tallies.lost[0] += first_timely;

  // The maj-th smallest rank of a row (or column) with `count` required
  // links, from its nonzero required ranks.
  int* line = s.line.data();
  const auto threshold = [&](bool is_row, ProcessId i, int count) {
    int nonzero = 0;
    for (ProcessId j = 0; j < n; ++j) {
      const ProcessId dst = is_row ? i : j;
      const ProcessId src = is_row ? j : i;
      const int r = s.rank[static_cast<std::size_t>(dst) * n + src];
      if (r == 0 || !classes.require(dst, src)) continue;
      line[nonzero++] = r;
    }
    return line_threshold(line, count, nonzero, maj, m);
  };

  // A line's maj-th smallest is 0 when a majority of its ranks are, and
  // at most its max, so lines that cannot raise a threshold are skipped.
  // `rows` is the max over rows, `leader_row` the leader's row (WLM).
  int es = 0;
  int rows = 0;
  int leader_row = 0;
  for (ProcessId dst = 0; dst < n; ++dst) {
    const auto d = static_cast<std::size_t>(dst);
    es = std::max(es, s.row_max[d]);
    const int count = classes.require_row_count(dst);
    if (count >= maj && (count - s.row_nonzero[d] >= maj ||
                         (dst != leader && s.row_max[d] <= rows))) {
      continue;
    }
    const int kth = threshold(true, dst, count);
    rows = std::max(rows, kth);
    if (dst == leader) leader_row = kth;
  }
  int afm = rows;
  for (ProcessId src = 0; src < n && afm < m; ++src) {
    const auto c = static_cast<std::size_t>(src);
    const int count = classes.require_col(src);
    if (count >= maj &&
        (count - s.col_nonzero[c] >= maj || s.col_max[c] <= afm)) {
      continue;
    }
    afm = std::max(afm, threshold(false, src, count));
  }

  const int leader_col = s.col_max[static_cast<std::size_t>(leader)];
  RoundRanks out;
  out.model = {es, std::max(leader_col, rows),
               std::max(leader_col, leader_row), afm};
  out.cls = cls;
  return out;
}

void TimelinessSampler::sample_round(Round k, PackedLinkMatrix& out) {
  // Generic fallback: sample through the scalar path (identical RNG
  // consumption) and pack. The scratch is per-thread and reused, so pool
  // workers never allocate per round after their first.
  thread_local LinkMatrix scratch;
  if (scratch.n() != n()) scratch = LinkMatrix(n());
  sample_round(k, scratch);
  out.assign_from(scratch);
}

FusedRoundEval TimelinessSampler::sample_round_and_evaluate(
    Round k, ProcessId leader, PackedLinkMatrix& out, ColumnDeficits& cols) {
  sample_round(k, out);
  FusedRoundEval eval;
  eval.mask =
      packed_evaluate_granular(out, leader, all_sync_planes(out.n()), cols)
          .sat;
  tally_fates(out, eval);
  return eval;
}

void tally_fates(const PackedLinkMatrix& a, FusedRoundEval& eval) {
  const int n = a.n();
  const int words = a.words_per_row();
  long long timely = 0;
  for (ProcessId dst = 0; dst < n; ++dst) {
    const std::uint64_t* row = a.row_words(dst);
    for (int w = 0; w < words; ++w) {
      timely += std::popcount(row[w]);
      std::uint64_t comp = ~row[w] & a.word_mask(w);
      while (comp != 0) {
        const ProcessId src = static_cast<ProcessId>(
            w * PackedLinkMatrix::kWordBits + std::countr_zero(comp));
        comp &= comp - 1;
        if (src == dst) continue;  // untimely self link: not a message
        if (a.at(dst, src) == kLost) {
          ++eval.lost;
        } else {
          ++eval.late;
        }
      }
    }
    // Self links are not messages; exclude the (normally set) self bit.
    if (a.timely(dst, dst)) --timely;
  }
  eval.timely += timely;
}

void draw_latency_round(LatencyModel& model, Round k,
                        std::vector<double>& latency) {
  const int n = model.n();
  latency.resize(static_cast<std::size_t>(n) * n);
  model.begin_round(k);
  double* cell = latency.data();
  for (ProcessId dst = 0; dst < n; ++dst) {
    for (ProcessId src = 0; src < n; ++src, ++cell) {
      *cell = src == dst ? 0.0 : model.sample_ms(src, dst);
    }
  }
}

FusedRoundEval classify_round(std::span<const double> latency,
                              double timeout_ms, int max_delay_rounds,
                              PackedLinkMatrix& out) {
  const int n = out.n();
  TM_CHECK(latency.size() == static_cast<std::size_t>(n) * n,
           "latency plane size must match the matrix");
  FusedRoundEval eval;
  const double* cell = latency.data();
  for (ProcessId dst = 0; dst < n; ++dst) {
    std::uint64_t* row = out.mutable_row_words(dst);
    for (int w = 0; w < out.words_per_row(); ++w) row[w] = 0;
    for (ProcessId src = 0; src < n; ++src, ++cell) {
      if (src == dst) {
        out.set_timely(dst, src);
        continue;
      }
      const Delay d = classify_latency(*cell, timeout_ms, max_delay_rounds);
      if (d == 0) {
        out.set_timely(dst, src);
        ++eval.timely;
      } else {
        out.store_untimely(dst, src, d);
        if (d == kLost) {
          ++eval.lost;
        } else {
          ++eval.late;
        }
      }
    }
  }
  return eval;
}

LatencyTimelinessSampler::LatencyTimelinessSampler(LatencyModel& model,
                                                   double timeout_ms,
                                                   int max_delay_rounds)
    : model_(model), timeout_ms_(timeout_ms),
      max_delay_rounds_(max_delay_rounds) {
  TM_CHECK(timeout_ms > 0.0, "timeout must be positive");
}

void LatencyTimelinessSampler::draw(Round k) {
  draw_latency_round(model_, k, latency_);
  if (!sink_) return;
  const int n = model_.n();
  const double* cell = latency_.data();
  for (ProcessId dst = 0; dst < n; ++dst) {
    for (ProcessId src = 0; src < n; ++src, ++cell) {
      if (src != dst) sink_(src, dst, *cell);
    }
  }
}

void LatencyTimelinessSampler::sample_round(Round k, LinkMatrix& out) {
  // The scalar reference: draws and classifies cell by cell, without the
  // latency plane, so tests can hold the packed paths to it.
  model_.begin_round(k);
  const int n = model_.n();
  for (ProcessId dst = 0; dst < n; ++dst) {
    for (ProcessId src = 0; src < n; ++src) {
      if (src == dst) {
        out.set(dst, src, 0);  // a process always "receives" its own message
        continue;
      }
      const double ms = model_.sample_ms(src, dst);
      if (sink_) sink_(src, dst, ms);
      out.set(dst, src, classify_latency(ms, timeout_ms_, max_delay_rounds_));
    }
  }
}

void LatencyTimelinessSampler::sample_round(Round k, PackedLinkMatrix& out) {
  draw(k);
  classify_round(latency_, timeout_ms_, max_delay_rounds_, out);
}

IidTimelinessSampler::IidTimelinessSampler(int n, double p,
                                           std::uint64_t seed,
                                           double loss_share)
    : n_(n), p_(p), loss_share_(loss_share), rng_(seed) {
  TM_CHECK(n > 1, "IID sampler needs n > 1");
  TM_CHECK(p >= 0.0 && p <= 1.0, "p must be a probability");
}

Delay IidTimelinessSampler::untimely_fate() {
  if (rng_.bernoulli(loss_share_)) return kLost;
  Delay d = 1;
  while (rng_.bernoulli(0.4) && d < 16) ++d;
  return d;
}

void IidTimelinessSampler::sample_round(Round, LinkMatrix& out) {
  for (ProcessId dst = 0; dst < n_; ++dst) {
    for (ProcessId src = 0; src < n_; ++src) {
      if (src == dst) {
        out.set(dst, src, 0);
        continue;
      }
      out.set(dst, src, rng_.bernoulli(p_) ? 0 : untimely_fate());
    }
  }
}

void IidTimelinessSampler::sample_round(Round, PackedLinkMatrix& out) {
  for (ProcessId dst = 0; dst < n_; ++dst) {
    std::uint64_t* row = out.mutable_row_words(dst);
    for (int w = 0; w < out.words_per_row(); ++w) row[w] = 0;
    for (ProcessId src = 0; src < n_; ++src) {
      if (src == dst || rng_.bernoulli(p_)) {
        out.set_timely(dst, src);
      } else {
        out.store_untimely(dst, src, untimely_fate());
      }
    }
  }
}

}  // namespace timing

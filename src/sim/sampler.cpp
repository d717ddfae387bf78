#include "sim/sampler.hpp"

#include <bit>
#include <cmath>

#include "common/check.hpp"

namespace timing {

namespace {

/// Streaming accumulator for the four failure-free predicates, fed cell
/// by cell as a fused kernel samples a round. Mirrors packed_evaluate_mask
/// exactly (differential-tested against the scalar predicates).
struct MaskAccum {
  int n = 0;
  int maj = 0;
  ProcessId leader = 0;
  ColumnDeficits* cols = nullptr;
  bool es = true;
  bool rows_ok = true;
  bool leader_col = true;
  int leader_row_cnt = 0;
  int cnt = 0;            // timely cells of the current row
  bool leader_bit = false;

  void begin(int n_in, ProcessId leader_in, ColumnDeficits& cols_in) {
    n = n_in;
    maj = majority_size(n_in);
    leader = leader_in;
    cols = &cols_in;
    cols->reset(n_in);
    es = rows_ok = leader_col = true;
    leader_row_cnt = 0;
  }
  void begin_row() {
    cnt = 0;
    leader_bit = false;
  }
  void cell_timely(ProcessId src) {
    ++cnt;
    if (src == leader) leader_bit = true;
  }
  void cell_untimely(ProcessId src) { cols->bump(src); }
  void end_row(ProcessId dst) {
    es &= cnt == n;
    rows_ok &= cnt >= maj;
    leader_col &= leader_bit;
    if (dst == leader) leader_row_cnt = cnt;
  }
  std::uint8_t finish() const {
    bool cols_ok = true;
    for (ProcessId src = 0; src < n; ++src) {
      cols_ok &= n - cols->at(src) >= maj;
    }
    std::uint8_t mask = 0;
    if (es) mask |= kPackedEsBit;
    if (leader_col && rows_ok) mask |= kPackedLmBit;
    if (leader_col && leader_row_cnt >= maj) mask |= kPackedWlmBit;
    if (rows_ok && cols_ok) mask |= kPackedAfmBit;
    return mask;
  }
};

/// Fate of one message with latency `ms` in rounds of `timeout_ms`.
Delay classify_latency(double ms, double timeout_ms,
                       int max_delay_rounds) noexcept {
  if (!std::isfinite(ms)) return kLost;
  if (ms <= timeout_ms) return 0;
  // Rounds last `timeout`; a message sent at the start of round k with
  // latency L lands in round k + floor(L / timeout).
  const double rounds_late = std::floor(ms / timeout_ms);
  return rounds_late > max_delay_rounds ? kLost
                                        : static_cast<Delay>(rounds_late);
}

}  // namespace

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
  eval.mask = packed_evaluate_mask(out, leader, cols);
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
                              ProcessId leader, PackedLinkMatrix& out,
                              ColumnDeficits& cols) {
  const int n = out.n();
  TM_CHECK(latency.size() == static_cast<std::size_t>(n) * n,
           "latency plane size must match the matrix");
  FusedRoundEval eval;
  MaskAccum acc;
  acc.begin(n, leader, cols);
  const double* cell = latency.data();
  for (ProcessId dst = 0; dst < n; ++dst) {
    std::uint64_t* row = out.mutable_row_words(dst);
    for (int w = 0; w < out.words_per_row(); ++w) row[w] = 0;
    acc.begin_row();
    for (ProcessId src = 0; src < n; ++src, ++cell) {
      if (src == dst) {
        out.set_timely(dst, src);
        acc.cell_timely(src);
        continue;
      }
      const Delay d = classify_latency(*cell, timeout_ms, max_delay_rounds);
      if (d == 0) {
        out.set_timely(dst, src);
        acc.cell_timely(src);
        ++eval.timely;
      } else {
        out.store_untimely(dst, src, d);
        acc.cell_untimely(src);
        if (d == kLost) {
          ++eval.lost;
        } else {
          ++eval.late;
        }
      }
    }
    acc.end_row(dst);
  }
  eval.mask = acc.finish();
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
  // The fates are all the caller wants; the predicate mask is dropped.
  classify_round(latency_, timeout_ms_, max_delay_rounds_, /*leader=*/0, out,
                 cols_);
}

FusedRoundEval LatencyTimelinessSampler::sample_round_and_evaluate(
    Round k, ProcessId leader, PackedLinkMatrix& out, ColumnDeficits& cols) {
  draw(k);
  return classify_round(latency_, timeout_ms_, max_delay_rounds_, leader, out,
                        cols);
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

FusedRoundEval IidTimelinessSampler::sample_round_and_evaluate(
    Round, ProcessId leader, PackedLinkMatrix& out, ColumnDeficits& cols) {
  FusedRoundEval eval;
  MaskAccum acc;
  acc.begin(n_, leader, cols);
  for (ProcessId dst = 0; dst < n_; ++dst) {
    std::uint64_t* row = out.mutable_row_words(dst);
    for (int w = 0; w < out.words_per_row(); ++w) row[w] = 0;
    acc.begin_row();
    for (ProcessId src = 0; src < n_; ++src) {
      if (src == dst) {
        out.set_timely(dst, src);
        acc.cell_timely(src);
      } else if (rng_.bernoulli(p_)) {
        out.set_timely(dst, src);
        acc.cell_timely(src);
        ++eval.timely;
      } else {
        const Delay d = untimely_fate();
        out.store_untimely(dst, src, d);
        acc.cell_untimely(src);
        if (d == kLost) {
          ++eval.lost;
        } else {
          ++eval.late;
        }
      }
    }
    acc.end_row(dst);
  }
  eval.mask = acc.finish();
  return eval;
}

}  // namespace timing

#include "harness/measurement.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace timing {

double RunMeasurement::incidence(TimingModel m) const noexcept {
  const auto& s = sat[static_cast<std::size_t>(model_index(m))];
  if (s.empty()) return 0.0;
  long long c = 0;
  for (auto b : s) c += b ? 1 : 0;
  return static_cast<double>(c) / static_cast<double>(s.size());
}

RunMeasurement measure_run(TimelinessSampler& sampler, int rounds,
                           ProcessId leader, TraceSink* trace) {
  TM_CHECK(rounds > 0, "need at least one round");
  RunMeasurement out;
  out.rounds = rounds;
  for (auto& s : out.sat) s.reserve(static_cast<std::size_t>(rounds));
  const int n = sampler.n();
  // One packed matrix per run, reused every round: the sample and
  // predicate phases both run on the bit plane.
  PackedLinkMatrix a(n);
  for (int r = 1; r <= rounds; ++r) {
    TM_TRACE(trace, TraceEvent::round_start(r));
    sampler.sample_round(r, a);
    // Message fates of the round's (virtual) all-to-all traffic. Self
    // links are excluded, matching the paper's p ("each process sent ...
    // to all others"). When tracing, walk cells in (dst, src) order so
    // the event stream is byte-identical to the historical scalar path;
    // otherwise tally from popcounts over the bit plane.
    if (trace != nullptr) {
      for (ProcessId d = 0; d < n; ++d) {
        for (ProcessId s = 0; s < n; ++s) {
          if (s == d) continue;
          ++out.messages_total;
          const Delay fate = a.at(d, s);
          if (fate == 0) {
            ++out.messages_timely;
            TM_TRACE(trace, TraceEvent::msg(EventKind::kMsgTimely, r, s, d));
          } else if (fate == kLost) {
            ++out.messages_lost;
            TM_TRACE(trace, TraceEvent::msg(EventKind::kMsgLost, r, s, d));
          } else {
            ++out.messages_late;
            TM_TRACE(trace,
                     TraceEvent::msg(EventKind::kMsgLate, r, s, d, fate));
          }
        }
      }
    } else {
      FusedRoundEval fates;
      tally_fates(a, fates);
      out.messages_total += static_cast<long long>(n) * (n - 1);
      out.messages_timely += fates.timely;
      out.messages_late += fates.late;
      out.messages_lost += fates.lost;
    }
    const std::uint8_t mask = evaluate_all(a, leader, trace, r);
    for (TimingModel m : kAllModels) {
      const int idx = model_index(m);
      out.sat[static_cast<std::size_t>(idx)].push_back(
          (mask & (1u << idx)) ? 1 : 0);
    }
    TM_TRACE(trace, TraceEvent::round_end(r));
  }
  return out;
}

DecisionWindow rounds_until_conditions(const std::vector<std::uint8_t>& sat,
                                       int start, int needed) {
  TM_CHECK(needed >= 1, "window length must be positive");
  TM_CHECK(start >= 0, "start must be non-negative");
  const int len = static_cast<int>(sat.size());
  int streak = 0;
  for (int i = start; i < len; ++i) {
    streak = sat[static_cast<std::size_t>(i)] ? streak + 1 : 0;
    if (streak >= needed) {
      return DecisionWindow{static_cast<double>(i - start + 1), false};
    }
  }
  return DecisionWindow{static_cast<double>(len - start), true};
}

DecisionStats decision_stats(const std::vector<std::uint8_t>& sat, int needed,
                             int start_points, Rng& rng) {
  TM_CHECK(start_points > 0, "need at least one start point");
  const int len = static_cast<int>(sat.size());
  TM_CHECK(len > needed, "run shorter than the decision window");
  DecisionStats out;
  int censored = 0;
  double sum = 0.0;
  for (int s = 0; s < start_points; ++s) {
    // Start anywhere in the first half so a typical window can complete.
    const int start = static_cast<int>(rng.uniform_int(
        static_cast<std::uint64_t>(std::max(1, len / 2))));
    const DecisionWindow w = rounds_until_conditions(sat, start, needed);
    sum += w.rounds;
    if (w.censored) ++censored;
  }
  out.mean_rounds = sum / start_points;
  out.censored_fraction = static_cast<double>(censored) / start_points;
  return out;
}

ConsecutiveWindowTracker::ConsecutiveWindowTracker(int needed,
                                                   std::vector<int> starts,
                                                   int total_rounds,
                                                   int timeouts)
    : needed_(needed), total_(total_rounds), m_(timeouts),
      starts_(std::move(starts)) {
  TM_CHECK(needed_ >= 1, "window length must be positive");
  TM_CHECK(total_ > needed_, "run shorter than the decision window");
  TM_CHECK(m_ >= 0, "timeout count must be non-negative");
  hist_.assign(static_cast<std::size_t>(m_) + 1, 0);
  ring_.assign(static_cast<std::size_t>(needed_), 0);
  by_start_.resize(starts_.size());
  for (std::size_t j = 0; j < starts_.size(); ++j) {
    TM_CHECK(starts_[j] >= 0 && starts_[j] < total_,
             "start point out of range");
    by_start_[j] = j;
  }
  std::sort(by_start_.begin(), by_start_.end(),
            [this](std::size_t a, std::size_t b) {
              return starts_[a] != starts_[b] ? starts_[a] < starts_[b]
                                              : a < b;
            });
  sorted_.reserve(starts_.size() + 1);
  for (const std::size_t j : by_start_) sorted_.push_back(starts_[j]);
  sorted_.push_back(std::numeric_limits<int>::max());  // never in reach
  resolved_.assign(static_cast<std::size_t>(m_), 0);
  end_.assign(static_cast<std::size_t>(m_) * starts_.size(), -1);
}

void ConsecutiveWindowTracker::observe_rank(int rank) noexcept {
  TM_CHECK(rank >= 0 && rank <= m_, "rank out of range");
  const int i = round_++;
  ++hist_[static_cast<std::size_t>(rank)];
  ring_[static_cast<std::size_t>(slot_)] = rank;
  slot_ = slot_ + 1 == needed_ ? 0 : slot_ + 1;
  // A window ending at round i resolves every pending start point at or
  // before its first round with i - start + 1 rounds — the same value
  // rounds_until_conditions returns, because a streak that began before
  // `start` still leaves a full window inside [start, i] whenever
  // start <= i - needed + 1. A start point coming into reach leaves every
  // index behind.
  const int cutoff = i - needed_ + 1;
  if (sorted_[reached_] <= cutoff) {
    do {
      ++reached_;
    } while (sorted_[reached_] <= cutoff);
    behind_ = m_;
  }
  // Only an index with a start point in reach still pending can gain
  // from the window. A start point in reach means i >= needed - 1, so the
  // ring then holds rounds i - needed + 1 .. i; the window holds at the
  // indices from its max rank up.
  if (behind_ == 0) return;
  const int window_max = *std::max_element(ring_.begin(), ring_.end());
  if (window_max < behind_) resolve(window_max, i);
}

void ConsecutiveWindowTracker::resolve(int window_max, int i) noexcept {
  // The window holds at indices window_max.. m-1; of those, the ones
  // below behind_ have start points in reach still pending.
  const std::size_t points = starts_.size();
  for (int t = window_max; t < behind_; ++t) {
    std::size_t& done = resolved_[static_cast<std::size_t>(t)];
    int* end = end_.data() + static_cast<std::size_t>(t) * points;
    for (; done < reached_; ++done) end[by_start_[done]] = i;
  }
  behind_ = window_max;
}

long long ConsecutiveWindowTracker::satisfied_rounds(int t) const noexcept {
  TM_CHECK(t >= 0 && t < m_, "sorted timeout index out of range");
  long long sat = 0;
  for (int r = 0; r <= t; ++r) sat += hist_[static_cast<std::size_t>(r)];
  return sat;
}

DecisionStats ConsecutiveWindowTracker::finalize(int t) const {
  TM_CHECK(!starts_.empty(), "need at least one start point");
  TM_CHECK(t >= 0 && t < m_, "sorted timeout index out of range");
  const int* end = end_.data() + static_cast<std::size_t>(t) * starts_.size();
  DecisionStats out;
  int censored = 0;
  double sum = 0.0;
  // Accumulate in the original draw order so the floating-point sum is
  // bit-identical to decision_stats over the materialised sat vector.
  for (std::size_t j = 0; j < starts_.size(); ++j) {
    if (end[j] >= 0) {
      sum += static_cast<double>(end[j] - starts_[j] + 1);
    } else {
      sum += static_cast<double>(total_ - starts_[j]);  // censored bound
      ++censored;
    }
  }
  const int start_points = static_cast<int>(starts_.size());
  out.mean_rounds = sum / start_points;
  out.censored_fraction = static_cast<double>(censored) / start_points;
  return out;
}

namespace {

/// Start points of one streamed run, pre-drawn in exactly the order the
/// vector-based path consumes them (model-major, kAllModels order), so the
/// same `start_rng` sub-stream yields the same points.
std::array<std::vector<int>, kNumModels> draw_start_points(Rng& start_rng,
                                                           int rounds,
                                                           int start_points) {
  std::array<std::vector<int>, kNumModels> starts;
  for (auto& at : starts) {
    at.resize(static_cast<std::size_t>(start_points));
    for (int& s : at) {
      // Start anywhere in the first half so a typical window can complete.
      s = static_cast<int>(start_rng.uniform_int(
          static_cast<std::uint64_t>(std::max(1, rounds / 2))));
    }
  }
  return starts;
}

/// What one streamed run accumulates at m sorted timeouts: a window
/// tracker per model and a rank histogram per link class, both fed the
/// round's ranks. Every streaming entry point feeds one of these per run
/// and reads each timeout's statistics off it with finalize().
class StreamedRunAccum {
 public:
  StreamedRunAccum(const std::array<int, kNumModels>& needed,
                   const std::array<std::vector<int>, kNumModels>& starts,
                   int rounds, int n, int m)
      : rounds_(rounds),
        messages_per_round_(static_cast<long long>(n) * (n - 1)) {
    track_.reserve(kNumModels);
    for (std::size_t i = 0; i < kNumModels; ++i) {
      track_.emplace_back(needed[i], starts[i], rounds, m);
    }
    for (auto& h : class_hist_) h.assign(static_cast<std::size_t>(m) + 1, 0);
  }

  /// One round's ranks: per model (kAllModels order) and per class, the
  /// first sorted index at which it holds, m if none.
  void observe(const RoundRanks& ranks) noexcept {
    for (std::size_t i = 0; i < kNumModels; ++i) {
      track_[i].observe_rank(ranks.model[i]);
    }
    for (std::size_t c = 0; c < kNumLinkModelClasses; ++c) {
      ++class_hist_[c][static_cast<std::size_t>(ranks.cls[c])];
    }
  }

  /// The run at sorted index t, given its off-diagonal fate tallies there.
  GranularStreamedRun finalize(int t, const FusedRoundEval& fates) const {
    GranularStreamedRun out;
    out.base.messages_total = messages_per_round_ * rounds_;
    out.base.messages_timely = fates.timely;
    out.base.messages_late = fates.late;
    out.base.messages_lost = fates.lost;
    const auto rounds = static_cast<double>(rounds_);
    for (std::size_t i = 0; i < kNumModels; ++i) {
      const DecisionStats ds = track_[i].finalize(t);
      out.base.pm[i] =
          static_cast<double>(track_[i].satisfied_rounds(t)) / rounds;
      out.base.mean_rounds[i] = ds.mean_rounds;
      out.base.censored[i] = ds.censored_fraction;
    }
    for (std::size_t c = 0; c < kNumLinkModelClasses; ++c) {
      long long conform = 0;
      for (int r = 0; r <= t; ++r) {
        conform += class_hist_[c][static_cast<std::size_t>(r)];
      }
      out.class_pm[c] = static_cast<double>(conform) / rounds;
    }
    return out;
  }

 private:
  int rounds_;
  long long messages_per_round_;
  std::vector<ConsecutiveWindowTracker> track_;
  std::array<std::vector<long long>, kNumLinkModelClasses> class_hist_;
};

/// A single-timeout round (m = 1) as ranks: 0 where its bit is set, else 1.
RoundRanks single_timeout_ranks(std::uint8_t sat, std::uint8_t csat) noexcept {
  RoundRanks ranks;
  for (std::size_t i = 0; i < ranks.model.size(); ++i) {
    ranks.model[i] = static_cast<int>(((sat >> i) & 1u) ^ 1u);
  }
  for (std::size_t c = 0; c < ranks.cls.size(); ++c) {
    ranks.cls[c] = static_cast<int>(((csat >> c) & 1u) ^ 1u);
  }
  return ranks;
}

void check_run_shape(int rounds, int start_points) {
  TM_CHECK(rounds > 0, "need at least one round");
  TM_CHECK(start_points > 0, "need at least one start point");
}

}  // namespace

StreamedRun measure_run_streaming(TimelinessSampler& sampler, int rounds,
                                  ProcessId leader,
                                  const std::array<int, kNumModels>& needed,
                                  int start_points, Rng& start_rng) {
  check_run_shape(rounds, start_points);
  const int n = sampler.n();
  StreamedRunAccum acc(needed,
                       draw_start_points(start_rng, rounds, start_points),
                       rounds, n, 1);
  PackedLinkMatrix a(n);
  ColumnDeficits cols;
  FusedRoundEval fates;
  for (int r = 1; r <= rounds; ++r) {
    const FusedRoundEval e =
        sampler.sample_round_and_evaluate(r, leader, a, cols);
    fates.timely += e.timely;
    fates.late += e.late;
    fates.lost += e.lost;
    acc.observe(single_timeout_ranks(e.mask, 0));
  }
  return acc.finalize(0, fates).base;
}

GranularStreamedRun measure_run_streaming_granular(
    TimelinessSampler& sampler, int rounds, ProcessId leader,
    const std::array<int, kNumModels>& needed, int start_points,
    Rng& start_rng, const GranularContext& g) {
  check_run_shape(rounds, start_points);
  const int n = sampler.n();
  TM_CHECK(n == g.n(), "link-model matrix size must match the sampler");
  StreamedRunAccum acc(needed,
                       draw_start_points(start_rng, rounds, start_points),
                       rounds, n, 1);
  PackedLinkMatrix a(n);
  FusedRoundEval fates;
  for (int r = 1; r <= rounds; ++r) {
    // sample_round_and_evaluate's steps over g's planes instead of the
    // all-sync ones; the kernel sweep also gives the class conformance.
    sampler.sample_round(r, a);
    tally_fates(a, fates);
    const GranularEval e = evaluate_all_granular(a, leader, g);
    acc.observe(single_timeout_ranks(e.sat, e.csat));
  }
  return acc.finalize(0, fates);
}

std::vector<GranularStreamedRun> measure_run_sweep(
    LatencyModel& model, const std::vector<double>& timeouts_ms, int rounds,
    ProcessId leader, const std::array<int, kNumModels>& needed,
    int start_points, Rng& start_rng, const GranularContext* g) {
  check_run_shape(rounds, start_points);
  const int n = model.n();
  TM_CHECK(g == nullptr || g->n() == n,
           "link-model matrix size must match the latency model");
  for (double t : timeouts_ms) TM_CHECK(t > 0.0, "timeout must be positive");

  // Rank against the distinct timeouts in ascending order; sorted_at[t]
  // is the sorted index of timeouts_ms[t].
  std::vector<double> sorted = timeouts_ms;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::vector<int> sorted_at;
  sorted_at.reserve(timeouts_ms.size());
  for (double t : timeouts_ms) {
    sorted_at.push_back(static_cast<int>(
        std::lower_bound(sorted.begin(), sorted.end(), t) - sorted.begin()));
  }

  // Every timeout replays the same run, so all of them share one set of
  // start points (the ones a fresh `start_rng` gives measure_run_streaming)
  // and one accumulator over the sorted timeouts.
  const int m = static_cast<int>(sorted.size());
  StreamedRunAccum acc(needed,
                       draw_start_points(start_rng, rounds, start_points),
                       rounds, n, m);

  // The homogeneous sweep is the all-sync case of the granular one; it
  // reports no class conformance (rank m: no class conforms anywhere).
  const GranularPlanes& classes =
      g == nullptr ? all_sync_planes(n) : g->planes();
  std::vector<LinkRank> links;
  RankScratch scratch;
  RankTallies tallies;
  tallies.reset(m);
  for (int r = 1; r <= rounds; ++r) {
    model.draw_ranked_round(r, sorted, links);
    RoundRanks ranks =
        rank_round(links, n, m, leader, classes, scratch, tallies);
    if (g == nullptr) ranks.cls.fill(m);
    acc.observe(ranks);
  }

  const std::vector<FusedRoundEval> fates = tallies.fates();
  std::vector<GranularStreamedRun> out;
  out.reserve(timeouts_ms.size());
  for (const int t : sorted_at) {
    out.push_back(acc.finalize(t, fates[static_cast<std::size_t>(t)]));
  }
  return out;
}

}  // namespace timing

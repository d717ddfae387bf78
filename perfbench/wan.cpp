// wan_sweep: `timing_lab run fig1g`, the paper's Section 5 WAN method
// (n = 8, 12 timeouts from 140 to 350 ms, 33 runs of 300 rounds, 15 start
// points, UK leader). Unit of work: one simulated round. Chosen because
// users run it to reproduce the paper and the latency sampler does most
// of its work; it never reaches giraf, consensus, fault, obs, history,
// smr or adversary.
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "common/rng.hpp"
#include "harness/experiments.hpp"
#include "harness/measurement.hpp"
#include "models/predicates.hpp"
#include "sim/latency_model.hpp"
#include "sim/sampler.hpp"

namespace perfbench {

namespace {

using timing::kAllModels;
using timing::model_index;

/// harness/experiments.cpp draws a cell's decision-window start points
/// from substream(seed ^ kStartSalt, run); the traced and reference
/// passes must consume the same sub-stream.
constexpr std::uint64_t kStartSalt = 0xabcdef;

/// Reference-checked cells per timeout (runs spread over the 33).
constexpr int kCheckedRunsPerTimeout = 3;

/// Cells the traced run replays per second of its budget: a fixed count,
/// so its count metrics repeat exactly for a seed.
constexpr long long kTracedCellsPerSecond = 80;

/// Forwards to a latency model, counting its draws and hashing their
/// values, so two passes can prove they consumed one sub-stream.
class CountingModel final : public timing::LatencyModel {
 public:
  explicit CountingModel(timing::LatencyModel& inner) : inner_(inner) {}

  int n() const noexcept override { return inner_.n(); }
  void begin_round(timing::Round k) override { inner_.begin_round(k); }
  double sample_ms(timing::ProcessId src, timing::ProcessId dst) override {
    const double ms = inner_.sample_ms(src, dst);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &ms, sizeof bits);
    hash = (hash ^ bits) * 0x100000001b3ull;
    ++draws;
    return ms;
  }

  long long draws = 0;
  std::uint64_t hash = 0xcbf29ce484222325ull;

 private:
  timing::LatencyModel& inner_;
};

bool same_stats(const timing::StreamedRun& a, const timing::StreamedRun& b) {
  return a.messages_total == b.messages_total &&
         a.messages_timely == b.messages_timely &&
         a.messages_late == b.messages_late &&
         a.messages_lost == b.messages_lost && a.pm == b.pm &&
         a.mean_rounds == b.mean_rounds && a.censored == b.censored;
}

class WanSweep final : public Workload {
 public:
  explicit WanSweep(const Options& opt)
      : opt_(opt),
        fig_(resolve("fig1g", {"seed=" + std::to_string(opt.seed)})),
        cfg_(timing::scenario::to_experiment_config(fig_.spec)),
        leader_(timing::resolve_leader(cfg_)),
        cells_(static_cast<long long>(cfg_.timeouts_ms.size()) * cfg_.runs),
        rounds_per_sweep_(cells_ * cfg_.rounds_per_run) {}

  void warm() override {
    std::string out;
    run_scenario(fig_, false, out);
  }

  /// Lognormal draws (log/exp) are ~85% of a round.
  Calibration calibration() const override { return Calibration::kFloat; }

  Batch run_batch(long long i, const Pause&) override {
    std::string out;
    const int rc = run_scenario(fig_, false, out);
    if (i == 0) first_ = out;
    // Every sweep of a run has the same seed, so the same stdout.
    const bool ok = rc == 0 && !out.empty() && out == first_;
    return Batch{rounds_per_sweep_, ok ? 0 : rounds_per_sweep_};
  }

  long long check(long long done, std::string& why) override {
    const long long all = done * rounds_per_sweep_;
    if (opt_.seed == 42) {
      const std::string path = opt_.root + "/tests/golden/fig1g_wan_rounds.txt";
      std::ifstream f(path);
      std::stringstream golden;
      golden << f.rdbuf();
      if (!f || golden.str() != first_) {
        why = "fig1g stdout differs from " + path;
        return all;
      }
    }
    for (std::size_t ti = 0; ti < cfg_.timeouts_ms.size(); ++ti) {
      for (int k = 0; k < kCheckedRunsPerTimeout; ++k) {
        const auto run = static_cast<std::uint64_t>(
            (7 * static_cast<int>(ti) + 11 * k + 5) % cfg_.runs);
        if (!reference_matches(cfg_.timeouts_ms[ti], run)) {
          why = "cell (timeout " + std::to_string(cfg_.timeouts_ms[ti]) +
                ", run " + std::to_string(run) +
                ") differs from measure_run + decision_stats";
          return all;
        }
      }
    }
    return 0;
  }

  Metrics traced(int seconds, Batch& outcome) override;

 private:
  /// The streamed kernel the sweep runs against the reference vector
  /// path, on one cell's sub-streams: the statistics must be bit-identical.
  bool reference_matches(double timeout, std::uint64_t run) const {
    const int rounds = cfg_.rounds_per_run;
    timing::WanLatencyModel fast_model(cfg_.wan,
                                       timing::substream_seed(cfg_.seed, run));
    timing::LatencyTimelinessSampler fast_sampler(fast_model, timeout);
    timing::Rng fast_starts = timing::substream(cfg_.seed ^ kStartSalt, run);
    const timing::StreamedRun fast = timing::measure_run_streaming(
        fast_sampler, rounds, leader_, cfg_.decision_rounds,
        cfg_.start_points, fast_starts);

    timing::WanLatencyModel ref_model(cfg_.wan,
                                      timing::substream_seed(cfg_.seed, run));
    timing::LatencyTimelinessSampler ref_sampler(ref_model, timeout);
    const timing::RunMeasurement ref =
        timing::measure_run(ref_sampler, rounds, leader_);
    timing::Rng ref_starts = timing::substream(cfg_.seed ^ kStartSalt, run);
    timing::StreamedRun slow;
    slow.messages_total = ref.messages_total;
    slow.messages_timely = ref.messages_timely;
    slow.messages_late = ref.messages_late;
    slow.messages_lost = ref.messages_lost;
    for (timing::TimingModel m : kAllModels) {
      const auto idx = static_cast<std::size_t>(model_index(m));
      const timing::DecisionStats ds = timing::decision_stats(
          ref.sat[idx], cfg_.decision_rounds[idx], cfg_.start_points,
          ref_starts);
      slow.pm[idx] = ref.incidence(m);
      slow.mean_rounds[idx] = ds.mean_rounds;
      slow.censored[idx] = ds.censored_fraction;
    }
    return same_stats(fast, slow);
  }

  Options opt_;
  Resolved fig_;
  timing::ExperimentConfig cfg_;
  timing::ProcessId leader_;
  long long cells_;
  long long rounds_per_sweep_;
  std::string first_;
};

Metrics WanSweep::traced(int seconds, Batch& outcome) {
  Metrics m;
  thread_speedups(
      3,
      [&] {
        std::string out;
        run_scenario(fig_, false, out);
      },
      m);

  const int rounds = cfg_.rounds_per_run;
  const int n = cfg_.wan.n;
  std::vector<timing::PackedLinkMatrix> plane(
      static_cast<std::size_t>(rounds), timing::PackedLinkMatrix(n));
  std::vector<std::uint8_t> fused_mask(static_cast<std::size_t>(rounds));
  std::vector<std::uint8_t> split_mask(static_cast<std::size_t>(rounds));
  long long draws = 0, msgs = 0, late = 0, lost = 0, traced_rounds = 0;
  double untraced_ns = 0;

  Spans spans;
  for (long long c = 0; c < seconds * kTracedCellsPerSecond; ++c) {
    const long long cell = c % cells_;
    const double timeout = cfg_.timeouts_ms[static_cast<std::size_t>(
        cell / cfg_.runs)];
    const auto run = static_cast<std::uint64_t>(cell % cfg_.runs);
    const std::uint64_t seed = timing::substream_seed(cfg_.seed, run);
    const long long unit = c * rounds;

    // 1. The production cell, as run_experiment runs it: once untraced,
    // once inside a span.
    const auto production_cell = [&] {
      timing::WanLatencyModel model(cfg_.wan, seed);
      timing::LatencyTimelinessSampler sampler(model, timeout);
      timing::Rng starts = timing::substream(cfg_.seed ^ kStartSalt, run);
      return timing::measure_run_streaming(sampler, rounds, leader_,
                                           cfg_.decision_rounds,
                                           cfg_.start_points, starts);
    };
    const long long t0 = now_ns();
    const timing::StreamedRun untraced = production_cell();
    untraced_ns += static_cast<double>(now_ns() - t0);
    timing::StreamedRun production;
    {
      Scope s(spans, "harness.run", unit);
      production = production_cell();
    }

    // 2-3. The same cell rebuilt from its public pieces: the fused kernel
    // per round, then the window trackers over its masks.
    timing::StreamedRun rebuilt;
    {
      timing::WanLatencyModel model(cfg_.wan, seed);
      timing::LatencyTimelinessSampler sampler(model, timeout);
      timing::PackedLinkMatrix a(n);
      timing::ColumnDeficits cols;
      Scope s(spans, "harness.fused", unit);
      for (int r = 1; r <= rounds; ++r) {
        const timing::FusedRoundEval e =
            sampler.sample_round_and_evaluate(r, leader_, a, cols);
        fused_mask[static_cast<std::size_t>(r - 1)] = e.mask;
        rebuilt.messages_total += static_cast<long long>(n) * (n - 1);
        rebuilt.messages_timely += e.timely;
        rebuilt.messages_late += e.late;
        rebuilt.messages_lost += e.lost;
      }
    }
    std::vector<timing::ConsecutiveWindowTracker> track;
    {
      Scope s(spans, "harness.run.self", unit);
      timing::Rng starts = timing::substream(cfg_.seed ^ kStartSalt, run);
      for (timing::TimingModel model : kAllModels) {
        std::vector<int> at(static_cast<std::size_t>(cfg_.start_points));
        for (int& p : at) {
          p = static_cast<int>(starts.uniform_int(
              static_cast<std::uint64_t>(std::max(1, rounds / 2))));
        }
        track.emplace_back(
            cfg_.decision_rounds[static_cast<std::size_t>(model_index(model))],
            std::move(at), rounds);
      }
    }
    {
      Scope s(spans, "harness.tracker", unit);
      for (int r = 0; r < rounds; ++r) {
        const std::uint8_t mask = fused_mask[static_cast<std::size_t>(r)];
        for (std::size_t i = 0; i < track.size(); ++i) {
          track[i].observe((mask & (1u << i)) != 0);
        }
      }
    }
    {
      Scope s(spans, "harness.run.self", unit);
      for (std::size_t i = 0; i < track.size(); ++i) {
        const timing::DecisionStats ds = track[i].finalize();
        rebuilt.pm[i] = static_cast<double>(track[i].satisfied_rounds()) /
                        static_cast<double>(rounds);
        rebuilt.mean_rounds[i] = ds.mean_rounds;
        rebuilt.censored[i] = ds.censored_fraction;
      }
    }

    // 4-5. The unfused pieces on the same sub-stream: the packed sampler,
    // then the packed predicates over its planes.
    timing::WanLatencyModel split_model(cfg_.wan, seed);
    CountingModel split_counted(split_model);
    {
      timing::LatencyTimelinessSampler sampler(split_counted, timeout);
      Scope s(spans, "sim.sampler", unit);
      for (int r = 1; r <= rounds; ++r) {
        sampler.sample_round(r, plane[static_cast<std::size_t>(r - 1)]);
      }
    }
    {
      Scope s(spans, "models.predicates", unit);
      for (int r = 0; r < rounds; ++r) {
        split_mask[static_cast<std::size_t>(r)] =
            timing::evaluate_all(plane[static_cast<std::size_t>(r)], leader_);
      }
    }

    // 6. The sampler's draws alone, in its (dst, src) order.
    timing::WanLatencyModel draw_model(cfg_.wan, seed);
    CountingModel draw_counted(draw_model);
    {
      Scope s(spans, "sim.latency", unit);
      for (int r = 1; r <= rounds; ++r) {
        draw_counted.begin_round(r);
        for (timing::ProcessId dst = 0; dst < n; ++dst) {
          for (timing::ProcessId src = 0; src < n; ++src) {
            if (src != dst) draw_counted.sample_ms(src, dst);
          }
        }
      }
    }

    const bool same = same_stats(untraced, production) &&
                      same_stats(production, rebuilt) &&
                      fused_mask == split_mask &&
                      split_counted.draws == draw_counted.draws &&
                      split_counted.hash == draw_counted.hash;
    outcome.units += rounds;
    if (!same) outcome.failed += rounds;
    traced_rounds += rounds;
    draws += split_counted.draws;
    msgs += rebuilt.messages_total;
    late += rebuilt.messages_late;
    lost += rebuilt.messages_lost;
  }

  const double per_round = 1.0 / static_cast<double>(traced_rounds);
  m["sim.latency.ns_per_draw"] =
      spans.total_ns("sim.latency") / static_cast<double>(draws);
  m["sim.latency.draws_per_round"] = static_cast<double>(draws) * per_round;
  m["sim.sampler.self_ns_per_round"] =
      (spans.total_ns("sim.sampler") - spans.total_ns("sim.latency")) *
      per_round;
  m["sim.fates.late_frac"] =
      static_cast<double>(late) / static_cast<double>(msgs);
  m["sim.fates.lost_frac"] =
      static_cast<double>(lost) / static_cast<double>(msgs);
  m["models.predicates.ns_per_round"] =
      spans.total_ns("models.predicates") * per_round;
  m["harness.fused.ns_per_round"] = spans.total_ns("harness.fused") * per_round;
  m["harness.tracker.ns_per_round"] =
      spans.total_ns("harness.tracker") * per_round;
  m["harness.run.self_ns_per_round"] =
      spans.total_ns("harness.run.self") * per_round;
  m["bench.trace_overhead_frac"] =
      spans.total_ns("harness.run") / untraced_ns - 1.0;
  return m;
}

}  // namespace

std::unique_ptr<Workload> make_wan_sweep(const Options& opt) {
  return std::make_unique<WanSweep>(opt);
}

}  // namespace perfbench

#include "harness/experiments.hpp"

#include <cmath>
#include <memory>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "oracles/omega.hpp"

namespace timing {

namespace {

std::unique_ptr<LatencyModel> make_model(const ExperimentConfig& cfg,
                                         std::uint64_t seed) {
  if (cfg.testbed == Testbed::kLan) {
    return std::make_unique<LanLatencyModel>(cfg.lan, seed);
  }
  return std::make_unique<WanLatencyModel>(cfg.wan, seed);
}

}  // namespace

std::vector<std::vector<double>> expected_rtt_matrix(
    const ExperimentConfig& cfg) {
  const int n = cfg.testbed == Testbed::kLan ? cfg.lan.n : cfg.wan.n;
  std::vector<std::vector<double>> rtt(
      static_cast<std::size_t>(n),
      std::vector<double>(static_cast<std::size_t>(n), 0.0));
  if (cfg.testbed == Testbed::kLan) {
    // Median one-way ~ base + exp(mu) scaled by the node factors.
    const double med = cfg.lan.base_ms + std::exp(cfg.lan.lognormal_mu);
    for (ProcessId i = 0; i < n; ++i) {
      for (ProcessId j = 0; j < n; ++j) {
        if (i == j) continue;
        rtt[i][j] =
            2.0 * med * cfg.lan.node_factor[i % 8] * cfg.lan.node_factor[j % 8];
      }
    }
  } else {
    WanLatencyModel probe(cfg.wan, /*seed=*/1);
    for (ProcessId i = 0; i < n; ++i) {
      for (ProcessId j = 0; j < n; ++j) {
        if (i == j) continue;
        rtt[i][j] = probe.base_ms(i, j) + probe.base_ms(j, i);
      }
    }
  }
  return rtt;
}

ProcessId resolve_leader(const ExperimentConfig& cfg) {
  if (cfg.leader != kNoProcess) return cfg.leader;
  if (cfg.testbed == Testbed::kWan) return WanLatencyModel::kUk;
  return elect_well_connected(expected_rtt_matrix(cfg));
}

std::vector<TimeoutResult> run_experiment(const ExperimentConfig& cfg) {
  TM_CHECK(!cfg.timeouts_ms.empty(), "no timeouts configured");
  TM_CHECK(cfg.runs > 0 && cfg.rounds_per_run > 1, "bad run shape");
  const int group_n = cfg.testbed == Testbed::kLan ? cfg.lan.n : cfg.wan.n;
  TM_CHECK(cfg.leader == kNoProcess ||
               (cfg.leader >= 0 && cfg.leader < group_n),
           "leader out of range");
  const ProcessId leader = resolve_leader(cfg);

  // Per-link timing assumptions, shared read-only by every trial.
  const bool granular = cfg.link_models.n() > 0;
  TM_CHECK(!granular || cfg.link_models.n() == group_n,
           "link_models size must match the testbed's group size");
  const GranularContext granular_ctx{
      granular ? cfg.link_models : LinkModelMatrix(0)};

  // Fan the runs out as independent trials. A run's randomness depends
  // only on (cfg.seed, run), so the executing thread and the thread count
  // are irrelevant to its output. Each trial draws its run's latencies
  // once and classifies every round against every timeout — the paired
  // design: the same latency stream for every timeout. The latency
  // sub-stream and the start_rng draw order are the ones measure_run +
  // decision_stats consumed per (timeout, run) cell, so every statistic
  // below is bit-identical to the historical path (tests/harness_test.cpp
  // pins the sweep to measure_run_streaming, which is pinned to it). The
  // granular variant preserves both stream orders, so an all-sync
  // link_models matrix reproduces the homogeneous sweep bit-for-bit
  // (tests/granular_test.cpp).
  const auto runs = static_cast<std::size_t>(cfg.runs);
  using RunSweep = std::vector<GranularStreamedRun>;
  const std::vector<RunSweep> trials =
      run_trials<RunSweep>(runs, [&](std::size_t run) {
        auto model = make_model(cfg, substream_seed(cfg.seed, run));
        Rng start_rng = substream(cfg.seed ^ 0xabcdef, run);
        return measure_run_sweep(*model, cfg.timeouts_ms, cfg.rounds_per_run,
                                 leader, cfg.decision_rounds,
                                 cfg.start_points, start_rng,
                                 granular ? &granular_ctx : nullptr);
      });

  // Fold per timeout in run order — the exact order of the historical
  // serial loop, so the sweep's statistics are bit-identical to it.
  std::vector<TimeoutResult> results;
  results.reserve(cfg.timeouts_ms.size());
  for (std::size_t ti = 0; ti < cfg.timeouts_ms.size(); ++ti) {
    const double timeout = cfg.timeouts_ms[ti];
    TimeoutResult tr;
    tr.timeout_ms = timeout;

    RunningStats p_stats;
    std::array<RunningStats, kNumModels> pm_stats;
    std::array<RunningStats, kNumModels> rounds_stats;
    std::array<RunningStats, kNumModels> censored_stats;
    std::array<RunningStats, kNumLinkModelClasses> class_stats;
    std::array<Histogram, kNumModels> rounds_hist;
    for (auto& h : rounds_hist) {
      h = Histogram(0.0, static_cast<double>(cfg.rounds_per_run) + 1.0,
                    kRoundsHistBins);
    }

    for (std::size_t run = 0; run < runs; ++run) {
      const GranularStreamedRun& t = trials[run][ti];
      p_stats.add(t.base.timely_fraction());
      for (int idx = 0; idx < kNumModels; ++idx) {
        const auto i = static_cast<std::size_t>(idx);
        pm_stats[i].add(t.base.pm[i]);
        rounds_stats[i].add(t.base.mean_rounds[i]);
        censored_stats[i].add(t.base.censored[i]);
        rounds_hist[i].add(t.base.mean_rounds[i]);
      }
      for (int c = 0; c < kNumLinkModelClasses; ++c) {
        class_stats[static_cast<std::size_t>(c)].add(
            t.class_pm[static_cast<std::size_t>(c)]);
      }
    }

    tr.mean_p = p_stats.mean();
    tr.granular = granular;
    if (granular) {
      for (int c = 0; c < kNumLinkModelClasses; ++c) {
        tr.mean_class_pm[static_cast<std::size_t>(c)] =
            class_stats[static_cast<std::size_t>(c)].mean();
      }
    }
    for (int idx = 0; idx < kNumModels; ++idx) {
      auto& ms = tr.models[static_cast<std::size_t>(idx)];
      ms.mean_pm = pm_stats[idx].mean();
      ms.ci95_pm = pm_stats[idx].ci95_half_width();
      ms.var_pm = pm_stats[idx].variance();
      ms.mean_rounds = rounds_stats[idx].mean();
      ms.mean_time_ms = ms.mean_rounds * timeout;
      ms.censored_fraction = censored_stats[idx].mean();
      ms.rounds_hist = rounds_hist[idx];
    }
    results.push_back(tr);
  }
  return results;
}

}  // namespace timing

// The Section 5 experiment drivers: sweep round timeouts over a simulated
// LAN or WAN testbed, and collect everything Figures 1(c)-(i) plot.
//
// Methodology copied from the paper:
//  * per timeout, `runs` independent runs of `rounds_per_run` rounds
//    (33 x 300 in the paper's WAN experiment);
//  * per run, the fraction of rounds satisfying each model (P_M), with
//    mean, 95% confidence interval and variance across runs
//    (Figures 1(e) and 1(f));
//  * per run, the number of rounds until the model's conditions for
//    global decision hold (R_M consecutive conforming rounds), averaged
//    over `start_points` random starting positions (15 in the paper),
//    then averaged across runs (Figure 1(g)); wall-clock time is
//    rounds x timeout (Figures 1(h) and 1(i));
//  * the run-wide fraction of timely messages gives the timeout -> p
//    mapping (Figure 1(d));
//  * the same latency seeds are reused across timeouts (paired design),
//    so curves vary with the timeout, not with resampling noise.
//
// Execution: every run is an independent trial fanned out over the shared
// thread pool (common/parallel.hpp, TIMING_THREADS env). A trial builds
// its run's latency model once, draws each round's n(n-1) latencies once
// and ranks them once against the whole sweep (measure_run_sweep), so a
// 12-timeout sweep draws 12x fewer latencies than replaying the run per
// timeout would, and classifies none of them per timeout. Trial
// randomness is a pure function of (cfg.seed, run index), and the
// per-timeout statistics are folded in run order on the calling thread,
// so results are bit-identical for every thread count — TIMING_THREADS=1
// reproduces the historical serial (timeout, run) loop exactly.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "harness/measurement.hpp"
#include "sim/latency_model.hpp"

namespace timing {

enum class Testbed { kLan, kWan };

struct ExperimentConfig {
  Testbed testbed = Testbed::kWan;
  std::vector<double> timeouts_ms;
  int runs = 33;
  int rounds_per_run = 300;
  int start_points = 15;
  std::uint64_t seed = 42;
  /// kNoProcess picks the default: the well-connected UK site on the WAN,
  /// the best-connected machine on the LAN (the paper's method). Override
  /// to reproduce the "average leader" experiment.
  ProcessId leader = kNoProcess;
  LanProfile lan{};
  WanProfile wan{};
  /// Rounds needed for global decision per model; defaults from the
  /// paper (ES 3, LM 3, WLM 4, AFM 5).
  std::array<int, kNumModels> decision_rounds{3, 3, 4, 5};
  /// Per-link timing assumptions. Empty (n() == 0) runs the homogeneous
  /// predicates; otherwise every trial evaluates the granular predicates
  /// against this matrix and the sweep reports per-class conformance.
  /// An all-sync matrix reproduces the homogeneous results bit-for-bit.
  LinkModelMatrix link_models;
};

struct ModelTimeoutStats {
  double mean_pm = 0.0;   ///< mean incidence across runs
  double ci95_pm = 0.0;   ///< 95% CI half-width of the mean
  double var_pm = 0.0;    ///< across-run variance (Figure 1(f))
  double mean_rounds = 0.0;   ///< rounds to decision conditions
  double mean_time_ms = 0.0;  ///< rounds x timeout
  double censored_fraction = 0.0;
};

struct TimeoutResult {
  double timeout_ms = 0.0;
  double mean_p = 0.0;  ///< Figure 1(d)
  std::array<ModelTimeoutStats, kNumModels> models;
  /// Granular sweeps only (cfg.link_models set): mean fraction of rounds,
  /// across runs, in which every link of the class was timely.
  bool granular = false;
  std::array<double, kNumLinkModelClasses> mean_class_pm{};
};

/// The leader the configuration resolves to (exposed for reporting).
ProcessId resolve_leader(const ExperimentConfig& cfg);

/// Expected RTT matrix of the configured testbed (medians, no noise) -
/// the "ping measurements" used for offline leader election.
std::vector<std::vector<double>> expected_rtt_matrix(
    const ExperimentConfig& cfg);

std::vector<TimeoutResult> run_experiment(const ExperimentConfig& cfg);

}  // namespace timing

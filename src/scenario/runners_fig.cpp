// Figure scenarios: the analysis curves (1(a), 1(b), Appendix C) and the
// Section 5 testbed sweeps (1(c)-(i)). Bodies are the former bench
// mains, now driven by a ScenarioSpec; with default specs the printed
// bytes are identical to the pre-registry binaries (pinned by the golden
// tests under tests/golden/).
#include <cmath>
#include <ostream>
#include <string>

#include "analysis/equations.hpp"
#include "common/table.hpp"
#include "oracles/omega.hpp"
#include "scenario/runners.hpp"

namespace timing::scenario {

using namespace timing::analysis;

int run_fig1a(const ScenarioSpec& spec, const RunContext& ctx) {
  const int n = spec.n;
  Table t({"p", "ES(3r)", "<>AFM(5r)", "<>LM(3r)", "<>WLM direct(4r)",
           "<>WLM simulated(7r)"});
  for (double p = 1.0; p >= 0.98999; p -= 0.001) {
    t.add_row({Table::num(p, 3),
               Table::num(e_rounds_es(n, p), 2),
               Table::num(e_rounds_afm(n, p), 2),
               Table::num(e_rounds_lm(n, p), 2),
               Table::num(e_rounds_wlm_direct(n, p), 2),
               Table::num(e_rounds_wlm_simulated(n, p), 2)});
  }
  ctx.emit(t,
           "Figure 1(a): E[rounds to global decision] vs p (IID analysis, "
           "n=" + std::to_string(n) + ", high p)");
  return 0;
}

int run_fig1b(const ScenarioSpec& spec, const RunContext& ctx) {
  const int n = spec.n;
  std::ostream& os = ctx.os();
  Table t({"p", "<>AFM(5r)", "<>LM(3r)", "<>WLM direct(4r)",
           "<>WLM simulated(7r)", "ES(3r, off-chart)"});
  for (double p = 0.90; p <= 0.9951; p += 0.005) {
    t.add_row({Table::num(p, 3),
               Table::num(e_rounds_afm(n, p), 1),
               Table::num(e_rounds_lm(n, p), 1),
               Table::num(e_rounds_wlm_direct(n, p), 1),
               Table::num(e_rounds_wlm_simulated(n, p), 1),
               Table::num(e_rounds_es(n, p), 0)});
  }
  ctx.emit(t,
           "Figure 1(b): E[rounds to global decision] vs p (IID analysis, "
           "n=" + std::to_string(n) + ", p in [0.9, 1))");

  os << "\nPaper spot values (Section 4.2):\n";
  os << "  ES at p=0.97:            " << Table::num(e_rounds_es(n, 0.97), 0)
     << " rounds   (paper: 349)\n";
  os << "  <>WLM direct at p=0.92:  "
     << Table::num(e_rounds_wlm_direct(n, 0.92), 0)
     << " rounds   (paper: 18)\n";
  os << "  <>WLM simulated at 0.92: "
     << Table::num(e_rounds_wlm_simulated(n, 0.92), 0)
     << " rounds   (paper: 114)\n";
  os << "  <>AFM at p=0.85:         " << Table::num(e_rounds_afm(n, 0.85), 0)
     << " rounds   (paper: 10)\n";
  os << "  <>LM at p=0.85:          " << Table::num(e_rounds_lm(n, 0.85), 0)
     << " rounds   (paper: 69)\n";
  return 0;
}

namespace {

void fig1c_sweep(const ExperimentConfig& cfg, int n, const RunContext& ctx,
                 const std::string& caption) {
  const auto rs = timing::run_experiment(cfg);
  Table t({"timeout(ms)", "p", "P_ES", "pred", "P_AFM", "pred", "P_LM",
           "pred", "P_WLM", "pred"});
  for (const auto& r : rs) {
    t.add_row({Table::num(r.timeout_ms, 2), Table::num(r.mean_p, 3),
               Table::num(r.models[model_index(TimingModel::kEs)].mean_pm, 3),
               Table::num(p_es(n, r.mean_p), 3),
               Table::num(r.models[model_index(TimingModel::kAfm)].mean_pm, 3),
               Table::num(p_afm(n, r.mean_p), 3),
               Table::num(r.models[model_index(TimingModel::kLm)].mean_pm, 3),
               Table::num(p_lm(n, r.mean_p), 3),
               Table::num(r.models[model_index(TimingModel::kWlm)].mean_pm, 3),
               Table::num(p_wlm(n, r.mean_p), 3)});
  }
  ctx.emit(t, caption);
  ctx.os() << "\n";
}

}  // namespace

int run_fig1c(const ScenarioSpec& spec, const RunContext& ctx) {
  std::ostream& os = ctx.os();
  ExperimentConfig good = to_experiment_config(spec);
  os << "Good (well-connected) leader: node " << timing::resolve_leader(good)
     << "\n";
  fig1c_sweep(good, spec.n, ctx,
              "Figure 1(c): LAN, measured vs IID-predicted P_M per timeout "
              "(well-connected leader)");

  ExperimentConfig avg = good;
  avg.leader = pick_average_leader(expected_rtt_matrix(good));
  os << "Average leader: node " << avg.leader << "\n";
  fig1c_sweep(avg, spec.n, ctx,
              "Figure 1(c) variant: the same sweep with an average leader "
              "(<>LM / <>WLM need bigger timeouts, Section 5.2)");
  return 0;
}

int run_fig1d(const ScenarioSpec& spec, const RunContext& ctx) {
  const auto rs = run_experiment(spec);
  Table t({"timeout(ms)", "p (fraction timely)"});
  for (const auto& r : rs) {
    t.add_row({Table::num(r.timeout_ms, 0), Table::num(r.mean_p, 3)});
  }
  ctx.emit(t, "Figure 1(d): WAN timeout -> fraction of timely messages (" +
                  std::to_string(spec.n) + " PlanetLab-profile sites, " +
                  std::to_string(spec.runs) + " runs x " +
                  std::to_string(spec.rounds_per_run) + " rounds)");
  return 0;
}

int run_fig1e(const ScenarioSpec& spec, const RunContext& ctx) {
  const auto rs = run_experiment(spec);
  Table t({"timeout(ms)", "P_ES +-ci", "P_AFM +-ci", "P_LM +-ci",
           "P_WLM +-ci"});
  auto cell = [](const ModelTimeoutStats& m) {
    return Table::num(m.mean_pm, 3) + " +-" + Table::num(m.ci95_pm, 3);
  };
  for (const auto& r : rs) {
    t.add_row({Table::num(r.timeout_ms, 0),
               cell(r.models[model_index(TimingModel::kEs)]),
               cell(r.models[model_index(TimingModel::kAfm)]),
               cell(r.models[model_index(TimingModel::kLm)]),
               cell(r.models[model_index(TimingModel::kWlm)])});
  }
  ctx.emit(t, "Figure 1(e): WAN, measured P_M per timeout (mean over " +
                  std::to_string(spec.runs) + " runs, 95% CI)");
  return 0;
}

int run_fig1f(const ScenarioSpec& spec, const RunContext& ctx) {
  const auto rs = run_experiment(spec);
  Table t({"timeout(ms)", "var P_ES", "var P_AFM", "var P_LM", "var P_WLM"});
  for (const auto& r : rs) {
    t.add_row({Table::num(r.timeout_ms, 0),
               Table::num(r.models[model_index(TimingModel::kEs)].var_pm, 4),
               Table::num(r.models[model_index(TimingModel::kAfm)].var_pm, 4),
               Table::num(r.models[model_index(TimingModel::kLm)].var_pm, 4),
               Table::num(r.models[model_index(TimingModel::kWlm)].var_pm, 4)});
  }
  ctx.emit(t, std::string() +
          "Figure 1(f): WAN, across-run variance of P_M per timeout");
  return 0;
}

int run_fig1g(const ScenarioSpec& spec, const RunContext& ctx) {
  const auto rs = run_experiment(spec);
  const auto needed = [&](TimingModel m) {
    return spec.decision_rounds[static_cast<std::size_t>(model_index(m))];
  };
  Table t({"timeout(ms)",
           "ES(" + std::to_string(needed(TimingModel::kEs)) + "r)", "cens",
           "<>AFM(" + std::to_string(needed(TimingModel::kAfm)) + "r)",
           "<>LM(" + std::to_string(needed(TimingModel::kLm)) + "r)",
           "<>WLM(" + std::to_string(needed(TimingModel::kWlm)) + "r)"});
  for (const auto& r : rs) {
    const auto& es = r.models[model_index(TimingModel::kEs)];
    t.add_row({Table::num(r.timeout_ms, 0),
               (es.censored_fraction > 0 ? ">=" : "") +
                   Table::num(es.mean_rounds, 1),
               Table::num(es.censored_fraction, 2),
               Table::num(r.models[model_index(TimingModel::kAfm)].mean_rounds, 1),
               Table::num(r.models[model_index(TimingModel::kLm)].mean_rounds, 1),
               Table::num(r.models[model_index(TimingModel::kWlm)].mean_rounds, 1)});
  }
  ctx.emit(t, std::string() +
          "Figure 1(g): WAN, average rounds until the global-decision "
          "conditions hold ('cens' = fraction of censored ES windows)");
  return 0;
}

int run_fig1h(const ScenarioSpec& spec, const RunContext& ctx) {
  const auto rs = run_experiment(spec);
  Table t({"timeout(ms)", "ES(ms)", "<>AFM(ms)", "<>LM(ms)", "<>WLM(ms)"});
  for (const auto& r : rs) {
    const auto& es = r.models[model_index(TimingModel::kEs)];
    t.add_row({Table::num(r.timeout_ms, 0),
               (es.censored_fraction > 0 ? ">=" : "") +
                   Table::num(es.mean_time_ms, 0),
               Table::num(r.models[model_index(TimingModel::kAfm)].mean_time_ms, 0),
               Table::num(r.models[model_index(TimingModel::kLm)].mean_time_ms, 0),
               Table::num(r.models[model_index(TimingModel::kWlm)].mean_time_ms, 0)});
  }
  ctx.emit(t, std::string() +
          "Figure 1(h): WAN, average time (ms) until the global-decision "
          "conditions hold (rounds x timeout)");
  return 0;
}

int run_fig1i(const ScenarioSpec& spec, const RunContext& ctx) {
  std::ostream& os = ctx.os();
  const auto rs = run_experiment(spec);

  Table t({"timeout(ms)", "<>LM rounds", "<>LM time(ms)", "<>WLM rounds",
           "<>WLM time(ms)"});
  double best_lm = 1e18, best_lm_t = 0, best_wlm = 1e18, best_wlm_t = 0;
  for (const auto& r : rs) {
    const auto& lm = r.models[model_index(TimingModel::kLm)];
    const auto& wlm = r.models[model_index(TimingModel::kWlm)];
    if (lm.mean_time_ms < best_lm) {
      best_lm = lm.mean_time_ms;
      best_lm_t = r.timeout_ms;
    }
    if (wlm.mean_time_ms < best_wlm) {
      best_wlm = wlm.mean_time_ms;
      best_wlm_t = r.timeout_ms;
    }
    t.add_row({Table::num(r.timeout_ms, 0), Table::num(lm.mean_rounds, 1),
               Table::num(lm.mean_time_ms, 0), Table::num(wlm.mean_rounds, 1),
               Table::num(wlm.mean_time_ms, 0)});
  }
  ctx.emit(t,
           "Figure 1(i): WAN, time to global-decision conditions vs "
           "timeout, <>LM and <>WLM (fine sweep)");

  os << "\nOptimal timeouts (paper: ~170 ms / ~730 ms for <>WLM, "
        "~210 ms / ~650 ms for <>LM, ~80 ms apart):\n";
  os << "  <>WLM: best timeout " << Table::num(best_wlm_t, 0)
     << " ms -> " << Table::num(best_wlm, 0) << " ms to decision\n";
  os << "  <>LM:  best timeout " << Table::num(best_lm_t, 0)
     << " ms -> " << Table::num(best_lm, 0) << " ms to decision\n";
  os << "  difference at the optima: "
     << Table::num(best_wlm - best_lm, 0)
     << " ms - the cost of dropping from Theta(n^2) to O(n) "
        "stable-state messages\n";
  return 0;
}

int run_appc_asymptotics(const ScenarioSpec& spec, const RunContext& ctx) {
  std::ostream& os = ctx.os();
  const double p = spec.iid_p;
  Table t({"n", "log10 E(D_ES)", "log10 E(D_LM)", "log10 E(D_WLM,4r)",
           "log10 E(D_WLM,7r)", "E(D_AFM)", "AFM Chernoff UB"});
  for (int n : spec.group_sizes) {
    const double afm = e_rounds_afm(n, p);
    const double ub = afm_chernoff_upper_bound(n, p);
    t.add_row({Table::integer(n),
               Table::num(log10_e_rounds(AnalyzedAlgorithm::kEs3, n, p), 2),
               Table::num(log10_e_rounds(AnalyzedAlgorithm::kLm3, n, p), 2),
               Table::num(log10_e_rounds(AnalyzedAlgorithm::kWlmDirect, n, p), 2),
               Table::num(log10_e_rounds(AnalyzedAlgorithm::kWlmSimulated, n, p), 2),
               Table::num(afm, 3),
               std::isinf(ub) ? std::string("inf") : Table::num(ub, 3)});
  }
  ctx.emit(t,
           "Appendix C: asymptotics of expected decision time in n "
           "(p = " + Table::num(p, 2) + "). ES/LM/WLM diverge; AFM -> 5.");

  os << "\nAFM convergence to 5 rounds for several p:\n";
  Table t2({"p", "E(D_AFM) n=8", "n=32", "n=128", "n=512"});
  for (double q : {0.6, 0.75, 0.9, 0.95}) {
    t2.add_row({Table::num(q, 2), Table::num(e_rounds_afm(8, q), 2),
                Table::num(e_rounds_afm(32, q), 2),
                Table::num(e_rounds_afm(128, q), 2),
                Table::num(e_rounds_afm(512, q), 2)});
  }
  ctx.emit(t2);
  return 0;
}

}  // namespace timing::scenario

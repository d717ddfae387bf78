// Granular (per-link timing model) scenarios:
//  * granular/fig1 - the Figure 1 WAN sweep evaluated under a per-link
//    assignment of {sync, psync, async} (link_models=SPEC): measured P_M
//    for the granular predicates, per-class conformance, and the rounds
//    to the global-decision conditions. With link_models=sync:all the
//    model columns are byte-identical to fig1e/fig1g.
//  * granular/ablation - how the model comparison degrades as links drop
//    their timing obligations: sweep the async link fraction over seeded
//    mixed matrices and compare measured granular P_M on IID links
//    against the Poisson-binomial analysis (analysis/granular.hpp).
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/granular.hpp"
#include "common/table.hpp"
#include "harness/measurement.hpp"
#include "scenario/runners.hpp"
#include "sim/sampler.hpp"

namespace timing::scenario {

int run_granular_fig1(const ScenarioSpec& spec, const RunContext& ctx) {
  std::ostream& os = ctx.os();
  ScenarioSpec resolved = spec;
  if (resolved.link_models.empty()) resolved.link_models = "sync:all";
  const ExperimentConfig cfg = to_experiment_config(resolved);

  os << "leader: node " << timing::resolve_leader(cfg) << "\n";
  os << "link models (" << resolved.link_models << "): "
     << cfg.link_models.count(LinkModelClass::kSync) << " sync, "
     << cfg.link_models.count(LinkModelClass::kPartialSync) << " psync, "
     << cfg.link_models.count(LinkModelClass::kAsync) << " async\n\n";

  const auto rs = timing::run_experiment(cfg);

  Table pm({"timeout(ms)", "p", "P_ES", "P_AFM", "P_LM", "P_WLM", "C_sync",
            "C_psync", "C_async"});
  for (const auto& r : rs) {
    pm.add_row(
        {Table::num(r.timeout_ms, 0), Table::num(r.mean_p, 3),
         Table::num(r.models[model_index(TimingModel::kEs)].mean_pm, 3),
         Table::num(r.models[model_index(TimingModel::kAfm)].mean_pm, 3),
         Table::num(r.models[model_index(TimingModel::kLm)].mean_pm, 3),
         Table::num(r.models[model_index(TimingModel::kWlm)].mean_pm, 3),
         Table::num(r.mean_class_pm[0], 3), Table::num(r.mean_class_pm[1], 3),
         Table::num(r.mean_class_pm[2], 3)});
  }
  ctx.emit(pm,
           "Granular Figure 1: WAN, measured granular P_M per timeout and "
           "per-class conformance (C_x = fraction of rounds in which every "
           "class-x link was timely)");
  os << "\n";

  Table rounds({"timeout(ms)", "ES", "cens", "<>AFM", "<>LM", "<>WLM"});
  for (const auto& r : rs) {
    const auto& es = r.models[model_index(TimingModel::kEs)];
    rounds.add_row(
        {Table::num(r.timeout_ms, 0),
         (es.censored_fraction > 0 ? ">=" : "") + Table::num(es.mean_rounds, 1),
         Table::num(es.censored_fraction, 2),
         Table::num(r.models[model_index(TimingModel::kAfm)].mean_rounds, 1),
         Table::num(r.models[model_index(TimingModel::kLm)].mean_rounds, 1),
         Table::num(r.models[model_index(TimingModel::kWlm)].mean_rounds, 1)});
  }
  ctx.emit(rounds,
           "Granular Figure 1: WAN, average rounds until the granular "
           "global-decision conditions hold");
  return 0;
}

int run_granular_ablation(const ScenarioSpec& spec, const RunContext& ctx) {
  std::ostream& os = ctx.os();
  const int n = spec.n;
  const double p = spec.iid_p;
  const ProcessId leader = scenario_leader(spec);
  analysis::GranularLinkProbs q;
  q.p_sync = q.p_psync = q.p_async = p;
  q.timely_self = true;  // the IID sampler forces self links timely

  os << "IID links at p = " << Table::num(p, 2) << ", n = " << n << ", "
     << spec.runs << " runs x " << spec.rounds_per_run
     << " rounds per point; psync share of non-async links = "
     << Table::num(spec.psync_frac, 2) << "\n\n";

  Table t({"async_frac", "async", "psync", "P_ES", "pred", "P_LM", "pred",
           "P_WLM", "pred", "P_AFM", "pred", "C_sync", "pred"});
  for (std::size_t fi = 0; fi < spec.async_fracs.size(); ++fi) {
    const double frac = spec.async_fracs[fi];
    // One seeded matrix per sweep point; the link streams below reuse the
    // same run sub-streams across points (paired design).
    const LinkModelMatrix m = LinkModelMatrix::mixed(
        n, frac, spec.psync_frac,
        substream_seed(spec.seed, static_cast<std::uint64_t>(fi)));
    const GranularContext g{m};

    std::array<double, kNumModels> pm{};
    double c_sync = 0.0;
    for (int run = 0; run < spec.runs; ++run) {
      IidTimelinessSampler sampler(
          n, p,
          substream_seed(spec.seed ^ 0x11d5eedULL,
                         static_cast<std::uint64_t>(run)));
      Rng start_rng =
          substream(spec.seed ^ 0xabcdef, static_cast<std::uint64_t>(run));
      const GranularStreamedRun r = measure_run_streaming_granular(
          sampler, spec.rounds_per_run, leader, spec.decision_rounds,
          spec.start_points, start_rng, g);
      for (int idx = 0; idx < kNumModels; ++idx) {
        pm[static_cast<std::size_t>(idx)] +=
            r.base.pm[static_cast<std::size_t>(idx)];
      }
      c_sync += r.class_pm[0];
    }
    for (double& v : pm) v /= spec.runs;
    c_sync /= spec.runs;

    auto meas_pred = [&](TimingModel model) {
      return std::vector<std::string>{
          Table::num(pm[static_cast<std::size_t>(model_index(model))], 3),
          Table::num(analysis::granular_p_model(model, m, leader, q), 3)};
    };
    std::vector<std::string> row{
        Table::num(frac, 2),
        Table::integer(m.count(LinkModelClass::kAsync)),
        Table::integer(m.count(LinkModelClass::kPartialSync))};
    for (TimingModel model :
         {TimingModel::kEs, TimingModel::kLm, TimingModel::kWlm,
          TimingModel::kAfm}) {
      for (auto& cell : meas_pred(model)) row.push_back(std::move(cell));
    }
    row.push_back(Table::num(c_sync, 3));
    row.push_back(Table::num(
        analysis::granular_p_class(m, LinkModelClass::kSync, q), 3));
    t.add_row(row);
  }
  ctx.emit(t,
           "Granular ablation: measured granular P_M on IID links vs the "
           "Poisson-binomial prediction as the async link fraction grows "
           "(async links carry no obligations and count towards no "
           "quorums; 'pred' columns from analysis/granular.hpp)");

  os << "\nReading: at async_frac=0 the granular predicates reduce to the "
        "homogeneous Section 4 comparison; as links go async, ES's "
        "requirement set shrinks (P_ES rises) while the quorum models "
        "lose candidate links (P_LM / P_AFM fall) - the model choice "
        "tradeoff is link-topology-dependent, not just p-dependent.\n";
  return 0;
}

}  // namespace timing::scenario

// Ablation scenarios — the former ablation_* bench mains driven by a
// ScenarioSpec. Each family reuses the spec's generic repetition fields
// for its natural knob (ScenarioSpec::runs doc comment): consensus
// instances, committed commands, Monte-Carlo trials; rounds_per_run is
// the round cap / run length. Default specs in registry.cpp reproduce the
// original hardcoded values, keeping default output byte-identical.
#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/equations.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "consensus/factory.hpp"
#include "consensus/paxos.hpp"
#include "consensus/wlm.hpp"
#include "giraf/engine.hpp"
#include "harness/measurement.hpp"
#include "models/schedule.hpp"
#include "models/timing_model.hpp"
#include "net/codec.hpp"
#include "net/transport.hpp"
#include "obs/trace_sink.hpp"
#include "oracles/omega.hpp"
#include "scenario/runners.hpp"
#include "sim/latency_model.hpp"
#include "sim/sampler.hpp"
#include "smr/smr.hpp"

namespace timing::scenario {

// ---------------------------------------------------------------------------
// ablation/paxos_recovery
// ---------------------------------------------------------------------------

namespace {

struct RecoveryResult {
  Round decision_round = -1;
  int ballots = 0;
};

// Builds the adversarial <>WLM-conforming matrix for one round.
LinkMatrix adversary_matrix(int n, ProcessId leader, int reveal_index) {
  const int maj = majority_size(n);
  LinkMatrix a(n, kLost);
  for (ProcessId i = 0; i < n; ++i) a.set(i, i, 0);
  for (ProcessId d = 0; d < n; ++d) a.set(d, leader, 0);  // leader n-source
  // Low group: acceptors 1 .. maj-2 (seeded with the lowest promises).
  for (ProcessId s = 1; s <= maj - 2; ++s) a.set(leader, s, 0);
  // One rotating high-promise acceptor.
  const ProcessId fresh = static_cast<ProcessId>(
      std::min(n - 1, maj - 1 + reveal_index));
  a.set(leader, fresh, 0);
  return a;
}

RecoveryResult run_paxos_recovery(int n) {
  const ProcessId leader = 0;
  std::vector<std::unique_ptr<Protocol>> group;
  std::vector<PaxosConsensus*> raw;
  for (ProcessId i = 0; i < n; ++i) {
    auto p = std::make_unique<PaxosConsensus>(i, n, 100 + i);
    raw.push_back(p.get());
    group.push_back(std::move(p));
  }
  for (ProcessId i = 1; i < n; ++i) raw[i]->seed_promise(1000 * i);
  auto oracle = std::make_shared<DesignatedOracle>(leader);
  RoundEngine engine(std::move(group), oracle);
  for (Round k = 1; k <= 40 * n; ++k) {
    const int reveal = std::max(0, raw[0]->ballots_started() - 1);
    engine.step(adversary_matrix(n, leader, reveal));
    if (engine.all_alive_decided()) {
      return {engine.global_decision_round(), raw[0]->ballots_started()};
    }
  }
  return {-1, raw[0]->ballots_started()};
}

RecoveryResult run_wlm_recovery(int n) {
  const ProcessId leader = 0;
  std::vector<std::unique_ptr<Protocol>> group;
  for (ProcessId i = 0; i < n; ++i) {
    group.push_back(std::make_unique<WlmConsensus>(i, n, 100 + i));
  }
  auto oracle = std::make_shared<DesignatedOracle>(leader);
  RoundEngine engine(std::move(group), oracle);
  int reveal = 0;
  for (Round k = 1; k <= 40 * n; ++k) {
    engine.step(adversary_matrix(n, leader, reveal));
    ++reveal;  // rotate the "fresh" member every round: mobile majorities
    if (engine.all_alive_decided()) {
      return {engine.global_decision_round(), 0};
    }
  }
  return {-1, 0};
}

}  // namespace

int run_ablation_paxos_recovery(const ScenarioSpec& spec,
                                const RunContext& ctx) {
  Table t({"n", "Paxos rounds", "Paxos ballots", "Algorithm 2 rounds"});
  const std::vector<int>& ns = spec.group_sizes;
  struct Point {
    RecoveryResult paxos, wlm;
  };
  const auto points = run_trials<Point>(ns.size(), [&](std::size_t i) {
    return Point{run_paxos_recovery(ns[i]), run_wlm_recovery(ns[i])};
  });
  for (std::size_t i = 0; i < ns.size(); ++i) {
    t.add_row({Table::integer(ns[i]),
               Table::integer(points[i].paxos.decision_round),
               Table::integer(points[i].paxos.ballots),
               Table::integer(points[i].wlm.decision_round)});
  }
  ctx.emit(t,
           "Ablation ([13] / Section 3): global decision under an "
           "adversarial minimally-<>WLM schedule with staggered pre-GSR "
           "ballots. Paxos recovery grows linearly with n; Algorithm 2 is "
           "constant.");
  ctx.os() << "\nNote: every round of the schedule satisfies <>WLM "
              "(leader column timely + a majority into the leader), yet "
              "Paxos's 'chase' pays ~2 rounds per hidden ballot tier.\n";
  return 0;
}

// ---------------------------------------------------------------------------
// ablation/algorithms_live
// ---------------------------------------------------------------------------

namespace {

struct LiveRow {
  double mean_rounds = 0.0;
  double mean_msgs = 0.0;
  double timely_pct = 0.0;
  double late_pct = 0.0;
  double lost_pct = 0.0;
  int failures = 0;
};

struct LiveInstance {
  Round decided = -1;
  EngineStats stats;
};

LiveRow run_algo(AlgorithmKind kind, double timeout_ms, int instances,
                 int round_cap, std::uint64_t seed) {
  // Each instance is seeded by its index alone, so the parallel fan-out
  // returns the same per-instance results for any TIMING_THREADS.
  const auto outs = run_trials<LiveInstance>(
      static_cast<std::size_t>(instances), [&](std::size_t inst) {
        WanProfile prof;
        WanLatencyModel model(prof,
                              seed + static_cast<std::uint64_t>(inst) * 7919);
        LatencyTimelinessSampler sampler(model, timeout_ms);
        std::vector<Value> proposals;
        for (int i = 0; i < 8; ++i) proposals.push_back(100 + i);
        auto oracle = std::make_shared<DesignatedOracle>(WanLatencyModel::kUk);
        RoundEngine engine(make_group(kind, proposals), oracle);
        LiveInstance out;
        out.decided = engine.run(sampler, round_cap);
        out.stats = engine.stats();
        return out;
      });
  RunningStats rounds, msgs;
  // Engine-side message-fate totals: the engine's own view of the
  // simulated network quality, cross-checkable against the sampler's p.
  long long sent = 0, timely = 0, late = 0, lost = 0;
  int failures = 0;
  for (const LiveInstance& inst : outs) {
    sent += inst.stats.messages_sent;
    timely += inst.stats.timely_deliveries;
    late += inst.stats.late_messages;
    lost += inst.stats.lost_messages;
    if (inst.decided < 0) {
      ++failures;
      continue;
    }
    rounds.add(static_cast<double>(inst.decided));
    msgs.add(static_cast<double>(inst.stats.messages_sent));
  }
  const auto share = [&](long long part) {
    return sent > 0 ? 100.0 * static_cast<double>(part) /
                          static_cast<double>(sent)
                    : 0.0;
  };
  return {rounds.mean(), msgs.mean(), share(timely), share(late),
          share(lost), failures};
}

}  // namespace

int run_ablation_algorithms_live(const ScenarioSpec& spec,
                                 const RunContext& ctx) {
  const int instances = spec.runs;
  const int round_cap = spec.rounds_per_run;
  const AlgorithmKind kinds[] = {AlgorithmKind::kWlm, AlgorithmKind::kLm3,
                                 AlgorithmKind::kAfm5, AlgorithmKind::kEs3,
                                 AlgorithmKind::kLmOverWlm,
                                 AlgorithmKind::kPaxos};
  for (double timeout : spec.timeouts_ms) {
    Table t({"algorithm", "mean rounds to global decision", "mean messages",
             "timely%", "late%", "lost%",
             "undecided@" + std::to_string(round_cap) + "r"});
    for (AlgorithmKind k : kinds) {
      const LiveRow r = run_algo(k, timeout, instances, round_cap, spec.seed);
      t.add_row({to_string(k), Table::num(r.mean_rounds, 2),
                 Table::num(r.mean_msgs, 0), Table::num(r.timely_pct, 1),
                 Table::num(r.late_pct, 1), Table::num(r.lost_pct, 1),
                 Table::integer(r.failures)});
    }
    ctx.emit(t, "Actual algorithm executions over the simulated WAN, "
                "timeout = " +
                    Table::num(timeout, 0) + " ms, " +
                    std::to_string(instances) + " instances");
    ctx.os() << "\n";
  }
  ctx.os()
      << "Algorithm 2 (O(n) messages) decides in nearly the same number of\n"
         "rounds as the Theta(n^2) <>LM algorithm while sending a fraction\n"
         "of the messages - the paper's headline result, on live runs.\n";
  return 0;
}

// ---------------------------------------------------------------------------
// ablation/window_formula
// ---------------------------------------------------------------------------

namespace {

double monte_carlo(double p_round, int needed, int trials, Rng& rng) {
  RunningStats stats;
  for (int t = 0; t < trials; ++t) {
    int streak = 0;
    int round = 0;
    for (;;) {
      ++round;
      streak = rng.bernoulli(p_round) ? streak + 1 : 0;
      if (streak >= needed) break;
      if (round > 100000000) break;  // unreachable at these parameters
    }
    stats.add(round);
  }
  return stats.mean();
}

}  // namespace

int run_ablation_window_formula(const ScenarioSpec& spec,
                                const RunContext& ctx) {
  using namespace timing::analysis;
  const int trials = spec.runs;
  Table t({"P (round ok)", "R", "paper E(D)", "exact E(D)", "Monte-Carlo",
           "paper/exact"});
  struct GridCell {
    int r;
    double p;
  };
  std::vector<GridCell> grid;
  for (int r : {3, 4, 5, 7}) {
    for (double p : {0.5, 0.7, 0.9, 0.95, 0.99}) grid.push_back({r, p});
  }
  // Each grid cell simulates on its own counter-based sub-stream, so the
  // fan-out stays reproducible (the former shared Rng would have made
  // results depend on execution order).
  const auto mcs = run_trials<double>(grid.size(), [&](std::size_t i) {
    Rng rng = substream(spec.seed, i);
    return monte_carlo(grid[i].p, grid[i].r, trials, rng);
  });
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double paper = expected_rounds(grid[i].p, grid[i].r);
    const double exact = exact_expected_rounds(grid[i].p, grid[i].r);
    t.add_row({Table::num(grid[i].p, 2), Table::integer(grid[i].r),
               Table::num(paper, 2), Table::num(exact, 2),
               Table::num(mcs[i], 2), Table::num(paper / exact, 3)});
  }
  ctx.emit(t,
           "Window-formula ablation: the paper's E(D) = P^-R + (R-1) vs "
           "the exact run-of-R renewal expectation vs simulation");

  ctx.os() << "\nEffect on Figure 1(b) (n=8): expected rounds, paper vs "
              "exact formula\n";
  Table f({"p", "<>WLM direct paper", "exact", "<>LM paper", "exact",
           "<>AFM paper", "exact"});
  for (double p : {0.90, 0.92, 0.95, 0.97, 0.99}) {
    f.add_row({Table::num(p, 2),
               Table::num(e_rounds_wlm_direct(8, p), 1),
               Table::num(e_rounds_exact(AnalyzedAlgorithm::kWlmDirect, 8, p), 1),
               Table::num(e_rounds_lm(8, p), 1),
               Table::num(e_rounds_exact(AnalyzedAlgorithm::kLm3, 8, p), 1),
               Table::num(e_rounds_afm(8, p), 1),
               Table::num(e_rounds_exact(AnalyzedAlgorithm::kAfm5, 8, p), 1)});
  }
  ctx.emit(f);
  ctx.os() << "\nThe model ranking at every p is unchanged; only the "
              "absolute round counts shift where P_M is far from 1.\n";
  return 0;
}

// ---------------------------------------------------------------------------
// ablation/simulation_cost
// ---------------------------------------------------------------------------

namespace {

struct Cost {
  Round decision_round = -1;
  long long stable_msgs = 0;
  long long stable_bytes = 0;
};

// Byte accounting needs message contents; we intercept by wrapping each
// protocol and encoding what it sends.
class ByteCounter final : public Protocol {
 public:
  ByteCounter(std::unique_ptr<Protocol> inner, long long* bytes,
              long long* msgs)
      : inner_(std::move(inner)), bytes_(bytes), msgs_(msgs) {}

  SendSpec initialize(ProcessId hint) override {
    return count(inner_->initialize(hint));
  }
  SendSpec compute(Round k, RoundMsgs received,
                   ProcessId hint) override {
    return count(inner_->compute(k, received, hint));
  }
  bool has_decided() const noexcept override { return inner_->has_decided(); }
  Value decision() const noexcept override { return inner_->decision(); }

 private:
  SendSpec count(SendSpec spec) {
    Bytes wire;
    encode(Envelope{0, 0, spec.msg}, wire);
    long long copies = 0;
    for (ProcessId d : spec.dests) {
      if (d != self_counted_) ++copies;
    }
    // Destination lists never include duplicates in our protocols; self
    // is skipped by the engine.
    *bytes_ = static_cast<long long>(wire.size()) * copies;
    *msgs_ = copies;
    return spec;
  }

  std::unique_ptr<Protocol> inner_;
  long long* bytes_;
  long long* msgs_;
  ProcessId self_counted_ = kNoProcess;  // self never in dests for our protos
};

Cost run_cost(AlgorithmKind kind, TimingModel network, int n, int round_cap,
              std::uint64_t seed) {
  std::vector<long long> bytes(static_cast<std::size_t>(n), 0);
  std::vector<long long> msgs(static_cast<std::size_t>(n), 0);
  std::vector<std::unique_ptr<Protocol>> group;
  for (ProcessId i = 0; i < n; ++i) {
    group.push_back(std::make_unique<ByteCounter>(
        make_protocol(kind, i, n, 100 + i), &bytes[static_cast<std::size_t>(i)],
        &msgs[static_cast<std::size_t>(i)]));
  }
  auto oracle = std::make_shared<DesignatedOracle>(0);
  RoundEngine engine(std::move(group), oracle);

  ScheduleConfig sched;
  sched.n = n;
  sched.model = network;
  sched.leader = 0;
  sched.gsr = 1;  // stable from the start: measure the steady state
  sched.seed = seed;
  ScheduleSampler sampler(sched);

  Cost cost;
  LinkMatrix a(n);
  std::vector<long long> round_msgs, round_bytes;
  for (Round k = 1; k <= round_cap; ++k) {
    sampler.sample_round(k, a);
    engine.step(a);
    long long m = 0, b = 0;
    for (ProcessId i = 0; i < n; ++i) {
      m += msgs[static_cast<std::size_t>(i)];
      b += bytes[static_cast<std::size_t>(i)];
    }
    round_msgs.push_back(m);
    round_bytes.push_back(b);
    if (engine.all_alive_decided()) {
      cost.decision_round = engine.global_decision_round();
      break;
    }
  }
  // Steady-state per-round cost: average the last two rounds, so the
  // simulation's alternating relay/inner rounds are both represented
  // (the relay rounds carry the O(n^3) payload).
  const std::size_t have = round_msgs.size();
  const std::size_t take = std::min<std::size_t>(2, have);
  for (std::size_t i = have - take; i < have; ++i) {
    cost.stable_msgs += round_msgs[i];
    cost.stable_bytes += round_bytes[i];
  }
  cost.stable_msgs /= static_cast<long long>(take);
  cost.stable_bytes /= static_cast<long long>(take);
  return cost;
}

}  // namespace

int run_ablation_simulation_cost(const ScenarioSpec& spec,
                                 const RunContext& ctx) {
  const std::vector<int>& ns = spec.group_sizes;
  const int cap = spec.rounds_per_run;
  // The 3x3 (group size x protocol option) grid runs as independent
  // trials on the thread pool; rows are emitted in grid order below.
  struct Cell {
    Cost direct, simulated, native;
  };
  const auto cells = run_trials<Cell>(ns.size(), [&](std::size_t i) {
    const int n = ns[i];
    return Cell{run_cost(AlgorithmKind::kWlm, TimingModel::kWlm, n, cap,
                         spec.seed),
                run_cost(AlgorithmKind::kLmOverWlm, TimingModel::kWlm, n, cap,
                         spec.seed),
                run_cost(AlgorithmKind::kLm3, TimingModel::kLm, n, cap,
                         spec.seed)};
  });
  for (std::size_t i = 0; i < ns.size(); ++i) {
    const int n = ns[i];
    Table t({"protocol", "network", "decision round", "msgs/round",
             "bytes/round"});
    const Cost& direct = cells[i].direct;
    const Cost& simulated = cells[i].simulated;
    const Cost& native = cells[i].native;
    t.add_row({"Algorithm 2 (direct)", "<>WLM",
               Table::integer(direct.decision_round),
               Table::integer(direct.stable_msgs),
               Table::integer(direct.stable_bytes)});
    t.add_row({"LM-3 over Algorithm 3", "<>WLM",
               Table::integer(simulated.decision_round),
               Table::integer(simulated.stable_msgs),
               Table::integer(simulated.stable_bytes)});
    t.add_row({"LM-3 native", "<>LM (stronger!)",
               Table::integer(native.decision_round),
               Table::integer(native.stable_msgs),
               Table::integer(native.stable_bytes)});
    ctx.emit(t, "n = " + std::to_string(n));
    ctx.os() << "\n";
  }
  ctx.os()
      << "Classical reducibility calls <>LM and <>WLM equivalent; the wire\n"
         "bill disagrees: the Appendix B reduction inflates both the round\n"
         "count (x2+2) and the traffic (O(n^3) bytes/round), while the\n"
         "paper's direct Algorithm 2 stays at O(n) small messages.\n";
  return 0;
}

// ---------------------------------------------------------------------------
// ablation/group_size
// ---------------------------------------------------------------------------

int run_ablation_group_size(const ScenarioSpec& spec, const RunContext& ctx) {
  const double p = spec.iid_p;
  const int rounds = spec.rounds_per_run;
  const auto needed = [&](TimingModel m) {
    return spec.decision_rounds[static_cast<std::size_t>(model_index(m))];
  };
  Table t({"n", "P_ES", "P_AFM", "P_LM", "P_WLM",
           "rounds ES(" + std::to_string(needed(TimingModel::kEs)) + ")",
           "AFM(" + std::to_string(needed(TimingModel::kAfm)) + ")",
           "LM(" + std::to_string(needed(TimingModel::kLm)) + ")",
           "WLM(" + std::to_string(needed(TimingModel::kWlm)) + ")"});
  const std::vector<int>& ns = spec.group_sizes;
  // One measurement run per group size, fanned over the pool; sampler
  // seeds depend only on n, so the sweep is thread-count-invariant. A
  // traced trial records into its own sink on the pool thread that runs
  // it; the collector takes them in trial order afterwards.
  std::vector<BufferSink> sinks(ctx.trace ? ns.size() : 0);
  const auto runs =
      run_trials<RunMeasurement>(ns.size(), [&](std::size_t i) {
        IidTimelinessSampler sampler(
            ns[i], p, spec.seed + static_cast<std::uint64_t>(ns[i]));
        return measure_run(sampler, rounds, /*leader=*/0,
                           ctx.trace ? &sinks[i] : nullptr);
      });
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    ctx.trace->push_back(
        TrialTrace{static_cast<int>(i), ns[i], sinks[i].take()});
  }
  for (std::size_t i = 0; i < ns.size(); ++i) {
    const RunMeasurement& m = runs[i];
    Rng rng(7);
    auto window = [&](TimingModel model) {
      const auto ds = decision_stats(
          m.sat[static_cast<std::size_t>(model_index(model))], needed(model),
          spec.start_points, rng);
      return (ds.censored_fraction > 0.5 ? ">=" : "") +
             Table::num(ds.mean_rounds, 1);
    };
    t.add_row({Table::integer(ns[i]),
               Table::num(m.incidence(TimingModel::kEs), 3),
               Table::num(m.incidence(TimingModel::kAfm), 3),
               Table::num(m.incidence(TimingModel::kLm), 3),
               Table::num(m.incidence(TimingModel::kWlm), 3),
               window(TimingModel::kEs), window(TimingModel::kAfm),
               window(TimingModel::kLm), window(TimingModel::kWlm)});
  }
  ctx.emit(t,
           "Group-size sweep, IID p = " + Table::num(p, 2) +
           " (measured; compare Appendix C). "
           "'>=' marks censored (" + std::to_string(rounds) +
           "-round run ended first).");
  ctx.os() << "\nChoosing a timing model depends on n as much as on p: at "
              "n = 48, <>AFM's conditions hold essentially always while "
              "ES's never do.\n";
  return 0;
}

// ---------------------------------------------------------------------------
// ablation/smr_cost
// ---------------------------------------------------------------------------

namespace {

struct PerCommand {
  double rounds = 0.0;
  double messages = 0.0;
  int decided = 0;
};

PerCommand run_sequence(AlgorithmKind kind, int n, int commands,
                        std::uint64_t seed) {
  SmrGroupConfig cfg;
  cfg.n = n;
  cfg.algorithm = kind;
  cfg.leader = 0;
  std::vector<std::unique_ptr<StateMachine>> machines;
  for (int i = 0; i < n; ++i) {
    machines.push_back(std::make_unique<KvStateMachine>());
  }
  SmrGroup group(cfg, std::move(machines));

  PerCommand out;
  long long rounds_total = 0;
  for (int c = 0; c < commands; ++c) {
    std::vector<Command> proposals;
    for (int i = 0; i < n; ++i) {
      proposals.push_back(make_kv_command(static_cast<std::uint32_t>(c % 16),
                                          static_cast<std::uint32_t>(c + i)));
    }
    ScheduleConfig sched;
    sched.n = n;
    sched.model = kind == AlgorithmKind::kLm3 ? TimingModel::kLm
                                              : TimingModel::kWlm;
    sched.leader = 0;
    sched.gsr = 1;  // stable regime: the common case the paper optimises
    sched.seed = seed + static_cast<std::uint64_t>(c);
    ScheduleSampler network(sched);
    const auto r = group.run_instance(proposals, network);
    if (!r.decided) continue;
    ++out.decided;
    rounds_total += r.rounds;
  }
  out.rounds = out.decided ? static_cast<double>(rounds_total) / out.decided
                           : 0.0;
  // Messages per command: rounds x per-round complexity of the pattern.
  const double per_round = kind == AlgorithmKind::kWlm
                               ? 2.0 * (n - 1)
                               : static_cast<double>(n) * (n - 1);
  out.messages = out.rounds * per_round;
  return out;
}

}  // namespace

int run_ablation_smr_cost(const ScenarioSpec& spec, const RunContext& ctx) {
  const int commands = spec.runs;
  Table t({"n", "Alg2 rounds/cmd", "Alg2 msgs/cmd", "LM-3 rounds/cmd",
           "LM-3 msgs/cmd", "msg ratio"});
  const std::vector<int>& ns = spec.group_sizes;
  struct Point {
    PerCommand wlm, lm;
  };
  const auto points = run_trials<Point>(ns.size(), [&](std::size_t i) {
    return Point{run_sequence(AlgorithmKind::kWlm, ns[i], commands, spec.seed),
                 run_sequence(AlgorithmKind::kLm3, ns[i], commands,
                              spec.seed)};
  });
  for (std::size_t i = 0; i < ns.size(); ++i) {
    const PerCommand& wlm = points[i].wlm;
    const PerCommand& lm = points[i].lm;
    t.add_row({Table::integer(ns[i]), Table::num(wlm.rounds, 2),
               Table::num(wlm.messages, 0), Table::num(lm.rounds, 2),
               Table::num(lm.messages, 0),
               Table::num(lm.messages / wlm.messages, 1)});
  }
  ctx.emit(t,
           "Steady-state replication cost per committed command (stable "
           "leader, stable network, " + std::to_string(commands) +
           " commands per point)");
  ctx.os() << "\nAlgorithm 2 pays ~1 extra round per command and saves a\n"
              "factor ~n/2 in messages - at n = 64 every command costs\n"
              "hundreds of messages less. This is the paper's tradeoff\n"
              "expressed in the unit operators care about.\n";
  return 0;
}

}  // namespace timing::scenario

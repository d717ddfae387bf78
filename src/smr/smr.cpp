#include "smr/smr.hpp"

#include <limits>

#include "common/check.hpp"
#include "oracles/omega.hpp"

namespace timing {

/// SmrNode runs every instance under the designated leader's oracle.
constexpr bool kNodeElects = false;

Round smr_first_round(int inst, Round instance_round_stride) {
  const std::int64_t first =
      1 + static_cast<std::int64_t>(inst) *
              static_cast<std::int64_t>(instance_round_stride);
  TM_CHECK(first >= 1 &&
               first <= std::numeric_limits<Round>::max() -
                            static_cast<std::int64_t>(instance_round_stride),
           "instance round range overflows Round");
  return static_cast<Round>(first);
}

SmrGroup::SmrGroup(SmrGroupConfig cfg,
                   std::vector<std::unique_ptr<StateMachine>> machines)
    : cfg_(cfg),
      core_(cfg.n, cfg.algorithm, cfg.leader, cfg.use_election,
            std::move(machines)) {}

SmrInstanceResult SmrGroup::run_instance(
    const std::vector<Command>& proposals, TimelinessSampler& network,
    const std::vector<Round>* crash_rounds, int max_rounds) {
  TM_CHECK(static_cast<int>(proposals.size()) == cfg_.n,
           "one proposal per replica");
  SmrInstance inst = core_.start_instance(
      proposals,
      crash_rounds != nullptr ? std::span<const Round>(*crash_rounds)
                              : std::span<const Round>(),
      spans_, 0);
  RoundEngine& engine = inst.engine;
  const Round decided = engine.run(
      network, max_rounds < 0 ? cfg_.max_rounds_per_instance : max_rounds);

  SmrInstanceResult result;
  result.rounds = engine.current_round();
  const bool sp_on = inst.span != 0;
  if (decided < 0) {
    if (sp_on) spans_->end(inst.span, span_kind::kInstance);
    return result;  // nothing applied anywhere
  }

  result.decided = true;
  result.command = smr_agreed_decision(engine);
  const std::uint64_t apply_span =
      sp_on ? make_span_id(span_kind::kApply,
                           static_cast<std::uint64_t>(inst.ordinal))
            : 0;
  if (sp_on) spans_->begin(apply_span, inst.span, span_kind::kApply);
  result.applied.assign(static_cast<std::size_t>(cfg_.n), false);
  for (ProcessId i = 0; i < cfg_.n; ++i) {
    result.applied[static_cast<std::size_t>(i)] = engine.alive(i);
  }
  core_.append(result.command);
  core_.apply_log(result.applied);
  if (sp_on) {
    spans_->end(apply_span, span_kind::kApply);
    spans_->end(inst.span, span_kind::kInstance);
  }
  return result;
}

SmrNode::SmrNode(SmrNodeConfig cfg, Transport& transport,
                 std::unique_ptr<StateMachine> machine)
    : cfg_(cfg), transport_(transport), machine_(std::move(machine)) {
  TM_CHECK(cfg_.n > 1, "replication needs n > 1");
  TM_CHECK(cfg_.self >= 0 && cfg_.self < cfg_.n, "self out of range");
  TM_CHECK(machine_ != nullptr, "state machine required");
  TM_CHECK(cfg_.instance_round_stride > cfg_.max_rounds_per_instance * 2,
           "instance round ranges would overlap");
}

std::vector<SmrNodeInstance> SmrNode::run(
    int instances, const std::function<Command(int)>& next_command) {
  std::vector<SmrNodeInstance> log;
  log.reserve(static_cast<std::size_t>(instances));
  SpanTracer* spans = cfg_.spans;
  const bool sp_on = spans != nullptr && spans->enabled();
  for (int inst = 0; inst < instances; ++inst) {
    const Command proposal = next_command(inst);
    auto protocol = make_smr_protocol(AlgorithmKind::kWlm, cfg_.self,
                                      cfg_.n, proposal, kNodeElects);
    DesignatedOracle designated(cfg_.leader);

    const std::uint64_t inst_span =
        sp_on ? make_span_id(span_kind::kInstance,
                             static_cast<std::uint64_t>(inst))
              : 0;
    if (sp_on) spans->begin(inst_span, 0, span_kind::kInstance);

    RoundSyncConfig rcfg;
    rcfg.timeout_ms = cfg_.timeout_ms;
    rcfg.max_rounds = cfg_.max_rounds_per_instance;
    rcfg.first_round = smr_first_round(inst, cfg_.instance_round_stride);
    rcfg.end_round = rcfg.first_round + cfg_.instance_round_stride;
    rcfg.one_way_ms = cfg_.one_way_ms;
    rcfg.spans = spans;
    rcfg.parent_span = inst_span;
    RoundSyncRunner runner(*protocol,
                           kNodeElects ? nullptr : &designated,
                           transport_, cfg_.n, rcfg);
    const RoundSyncResult r = runner.run();

    SmrNodeInstance rec;
    rec.decided = r.decided;
    rec.decision_round = r.decision_round;
    rec.elapsed_ms = r.elapsed_ms;
    if (r.decided) {
      rec.command = protocol->decision();
      const std::uint64_t apply_span =
          sp_on ? make_span_id(span_kind::kApply,
                               static_cast<std::uint64_t>(inst))
                : 0;
      if (sp_on) spans->begin(apply_span, inst_span, span_kind::kApply);
      machine_->apply(rec.command);
      if (sp_on) spans->end(apply_span, span_kind::kApply);
    }
    if (sp_on) spans->end(inst_span, span_kind::kInstance);
    log.push_back(rec);
  }
  return log;
}

}  // namespace timing

#include "smr/smr.hpp"

#include <limits>

#include "common/check.hpp"
#include "giraf/engine.hpp"
#include "oracles/omega.hpp"
#include "oracles/omega_election.hpp"

namespace timing {

std::unique_ptr<Protocol> make_smr_protocol(AlgorithmKind kind,
                                            ProcessId self, int n,
                                            Command proposal,
                                            bool use_election) {
  // Proposals must be real values; noops are encoded as a reserved
  // command, which is a valid consensus value but must not collide with
  // kNoValue.
  static_assert(kNoopCommand != kNoValue);
  auto inner = make_protocol(kind, self, n, proposal);
  if (!use_election) return inner;
  return std::make_unique<OmegaElection>(self, n, std::move(inner));
}

Value smr_agreed_decision(const RoundEngine& engine) {
  Value agreed = kNoValue;
  for (ProcessId i = 0; i < engine.n(); ++i) {
    // Skip ANY undecided replica: reading decision() from an alive
    // replica that is still a round behind the deciders (or crashed
    // before deciding) would poison the agreement check with garbage.
    if (!engine.process(i).has_decided()) continue;
    const Value d = engine.process(i).decision();
    if (agreed == kNoValue) agreed = d;
    TM_CHECK(d == agreed,
             "consensus violated agreement");  // hard stop: data corruption
  }
  TM_CHECK(agreed != kNoValue, "no replica decided");
  return agreed;
}

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
    : cfg_(cfg), machines_(std::move(machines)) {
  TM_CHECK(static_cast<int>(machines_.size()) == cfg_.n,
           "one state machine per replica");
  TM_CHECK(cfg_.n > 1, "replication needs n > 1");
  for (const auto& m : machines_) TM_CHECK(m != nullptr, "null machine");
  applied_.assign(machines_.size(), 0);
}

SmrInstanceResult SmrGroup::run_instance(
    const std::vector<Command>& proposals, TimelinessSampler& network,
    const std::vector<Round>* crash_rounds, int max_rounds) {
  TM_CHECK(static_cast<int>(proposals.size()) == cfg_.n,
           "one proposal per replica");
  std::vector<std::unique_ptr<Protocol>> group;
  for (ProcessId i = 0; i < cfg_.n; ++i) {
    group.push_back(make_smr_protocol(cfg_.algorithm, i, cfg_.n,
                                      proposals[static_cast<std::size_t>(i)],
                                      cfg_.use_election));
  }
  std::shared_ptr<Oracle> oracle;
  if (!cfg_.use_election) {
    oracle = std::make_shared<DesignatedOracle>(cfg_.leader);
  }
  const int ordinal = instances_run_++;
  const bool sp_on = spans_ != nullptr && spans_->enabled();
  const std::uint64_t inst_span =
      sp_on ? make_span_id(span_kind::kInstance,
                           static_cast<std::uint64_t>(ordinal))
            : 0;
  if (sp_on) spans_->begin(inst_span, 0, span_kind::kInstance);

  RoundEngine engine(std::move(group), oracle);
  if (sp_on) {
    engine.set_span_tracer(spans_, inst_span,
                           static_cast<std::uint32_t>(ordinal));
  }
  if (crash_rounds != nullptr) {
    TM_CHECK(static_cast<int>(crash_rounds->size()) == cfg_.n,
             "one crash entry per replica");
    for (ProcessId i = 0; i < cfg_.n; ++i) {
      const Round at = (*crash_rounds)[static_cast<std::size_t>(i)];
      if (at > 0) engine.crash_at(i, at);
    }
  }
  const Round decided = engine.run(
      network, max_rounds < 0 ? cfg_.max_rounds_per_instance : max_rounds);

  SmrInstanceResult result;
  result.rounds = engine.current_round();
  if (decided < 0) {
    if (sp_on) spans_->end(inst_span, span_kind::kInstance);
    return result;  // nothing applied anywhere
  }

  result.decided = true;
  const Value agreed = smr_agreed_decision(engine);
  result.command = agreed;
  log_.push_back(agreed);
  const std::uint64_t apply_span =
      sp_on ? make_span_id(span_kind::kApply,
                           static_cast<std::uint64_t>(ordinal))
            : 0;
  if (sp_on) spans_->begin(apply_span, inst_span, span_kind::kApply);
  result.applied.assign(static_cast<std::size_t>(cfg_.n), false);
  for (ProcessId i = 0; i < cfg_.n; ++i) {
    if (!engine.alive(i)) continue;  // crashed: replays when it recovers
    // Log replay on recovery: a replica that missed decisions while
    // crashed catches up on the whole suffix before the new command.
    std::size_t& upto = applied_[static_cast<std::size_t>(i)];
    while (upto < log_.size()) {
      machines_[static_cast<std::size_t>(i)]->apply(log_[upto]);
      ++upto;
    }
    result.applied[static_cast<std::size_t>(i)] = true;
  }
  if (sp_on) {
    spans_->end(apply_span, span_kind::kApply);
    spans_->end(inst_span, span_kind::kInstance);
  }
  ++instances_decided_;
  return result;
}

bool SmrGroup::consistent() const {
  return consistent_among(std::vector<bool>(machines_.size(), true));
}

bool SmrGroup::consistent_among(const std::vector<bool>& include) const {
  std::uint64_t reference = 0;
  bool have_reference = false;
  for (std::size_t i = 0; i < machines_.size(); ++i) {
    if (!include[i]) continue;
    const std::uint64_t f = machines_[i]->fingerprint();
    if (!have_reference) {
      reference = f;
      have_reference = true;
    } else if (f != reference) {
      return false;
    }
  }
  return true;
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
                                      cfg_.n, proposal, cfg_.use_election);
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
                           cfg_.use_election ? nullptr : &designated,
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

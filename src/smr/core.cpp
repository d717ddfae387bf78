#include "smr/core.hpp"

#include "common/check.hpp"
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

SmrCore::SmrCore(int n, AlgorithmKind algorithm, ProcessId leader,
                 bool use_election,
                 std::vector<std::unique_ptr<StateMachine>> machines)
    : algorithm_(algorithm),
      leader_(leader),
      use_election_(use_election),
      machines_(std::move(machines)) {
  TM_CHECK(static_cast<int>(machines_.size()) == n,
           "one state machine per replica");
  TM_CHECK(n > 1, "replication needs n > 1");
  for (const auto& m : machines_) TM_CHECK(m != nullptr, "null machine");
  applied_.assign(machines_.size(), 0);
  last_appliers_.assign(machines_.size(), true);
}

SmrInstance SmrCore::start_instance(std::span<const Command> proposals,
                                    std::span<const Round> crash_rounds,
                                    SpanTracer* spans,
                                    std::uint64_t parent_span) {
  const int n = static_cast<int>(machines_.size());
  TM_CHECK(proposals.size() == 1 || static_cast<int>(proposals.size()) == n,
           "one proposal per replica, or one for all");
  std::vector<std::unique_ptr<Protocol>> group;
  group.reserve(machines_.size());
  for (ProcessId i = 0; i < n; ++i) {
    const Command proposal =
        proposals.size() == 1 ? proposals[0]
                              : proposals[static_cast<std::size_t>(i)];
    group.push_back(
        make_smr_protocol(algorithm_, i, n, proposal, use_election_));
  }
  std::shared_ptr<Oracle> oracle;
  if (!use_election_) oracle = std::make_shared<DesignatedOracle>(leader_);

  SmrInstance inst{RoundEngine(std::move(group), std::move(oracle)),
                   instances_started_++, 0};
  if (spans != nullptr && spans->enabled()) {
    inst.span = make_span_id(span_kind::kInstance,
                             static_cast<std::uint64_t>(inst.ordinal));
    spans->begin(inst.span, parent_span, span_kind::kInstance);
    inst.engine.set_span_tracer(spans, inst.span,
                                static_cast<std::uint32_t>(inst.ordinal));
  }
  if (!crash_rounds.empty()) {
    TM_CHECK(static_cast<int>(crash_rounds.size()) == n,
             "one crash entry per replica");
    for (ProcessId i = 0; i < n; ++i) {
      const Round at = crash_rounds[static_cast<std::size_t>(i)];
      if (at > 0) inst.engine.crash_at(i, at);
    }
  }
  return inst;
}

void SmrCore::apply_log(const std::vector<bool>& appliers) {
  for (std::size_t i = 0; i < machines_.size(); ++i) {
    if (!appliers[i]) continue;  // crashed: replays when it recovers
    std::size_t& upto = applied_[i];
    while (upto < log_.size()) machines_[i]->apply(log_[upto++]);
  }
  last_appliers_ = appliers;
}

bool SmrCore::consistent() const {
  return consistent_among(std::vector<bool>(machines_.size(), true));
}

bool SmrCore::consistent_among(const std::vector<bool>& include) const {
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

}  // namespace timing

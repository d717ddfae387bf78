// What the two engine-based replication forms share. SmrGroup runs one
// consensus instance per command; ReplicatedLog overlaps slot-tagged
// decrees. They differ only in that decision policy — a proposal that
// loses a serialized instance completes as `fail`, which a slot-decree
// log never produces — so everything around it lives here once:
//  * InstanceEnv, the network one consensus instance runs over;
//  * SmrCore::start_instance, the engine set-up (protocols, oracle,
//    instance span, crash schedule);
//  * SmrCore's machines and decided log: log replay on recovery and the
//    fingerprint agreement checks.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "consensus/factory.hpp"
#include "giraf/engine.hpp"
#include "obs/span.hpp"
#include "sim/sampler.hpp"
#include "smr/state_machine.hpp"

namespace timing {

/// A consensus protocol instance for one replica, optionally wrapped in
/// OmegaElection when the deployment elects its own leader.
std::unique_ptr<Protocol> make_smr_protocol(AlgorithmKind kind,
                                            ProcessId self, int n,
                                            Command proposal,
                                            bool use_election);

/// The value a decided engine agreed on. Scans every replica that HAS
/// decided — crashed or alive — and TM_CHECKs they all agree; replicas
/// that have not decided (crashed early, or alive but still a round
/// behind the deciders) are skipped, never read. At least one replica
/// must have decided.
Value smr_agreed_decision(const RoundEngine& engine);

/// Network environment for one consensus instance. The caller decides
/// what the network does (fault-injected samplers for the chaos gates,
/// fault-free ones for probe phases), which keeps SmrGroup and
/// ReplicatedLog free of any fault/model dependency.
struct InstanceEnv {
  std::unique_ptr<TimelinessSampler> sampler;
  std::vector<Round> crash_rounds;  ///< empty = no crashes
  int max_rounds = -1;              ///< -1 = max_rounds_per_instance
};

/// One started consensus instance.
struct SmrInstance {
  RoundEngine engine;
  int ordinal = 0;         ///< start order within its SmrCore (span key)
  std::uint64_t span = 0;  ///< its `instance` span (0 when spans are off)
};

class SmrCore {
 public:
  /// One state machine per replica (machines.size() == n > 1).
  SmrCore(int n, AlgorithmKind algorithm, ProcessId leader, bool use_election,
          std::vector<std::unique_ptr<StateMachine>> machines);

  /// The engine of the next instance. Replica i proposes proposals[i],
  /// or proposals[0] when one proposal is given for all; without
  /// election the engine runs under the designated leader's oracle.
  /// `crash_rounds` (empty = none, else one entry per replica, 0 =
  /// never) schedules crash failures. With an enabled `spans`, the
  /// instance becomes an `instance` span under `parent_span`, keyed by
  /// its ordinal, with the engine's `round` spans beneath it.
  SmrInstance start_instance(std::span<const Command> proposals,
                             std::span<const Round> crash_rounds,
                             SpanTracer* spans, std::uint64_t parent_span);

  /// Append one decided command to the log.
  void append(Command cmd) { log_.push_back(cmd); }
  /// Bring every replica in `appliers` to the end of the log and record
  /// them as the last commit's appliers. A replica that missed commits
  /// while crashed replays the whole suffix first (log replay on
  /// recovery), so surviving replicas never silently diverge.
  void apply_log(const std::vector<bool>& appliers);

  /// The decided command log, in commit order.
  const std::vector<Command>& log() const noexcept { return log_; }
  const StateMachine& machine(ProcessId i) const { return *machines_[i]; }
  /// Which replicas applied the full log at the last commit (all true
  /// before anything committed).
  const std::vector<bool>& last_appliers() const noexcept {
    return last_appliers_;
  }

  /// True iff all replicas' fingerprints agree.
  bool consistent() const;
  /// Consistency restricted to a subset (e.g. the last commit's
  /// appliers: a replica crashed at the end is behind, not divergent).
  bool consistent_among(const std::vector<bool>& include) const;

 private:
  AlgorithmKind algorithm_;
  ProcessId leader_;
  bool use_election_;
  std::vector<std::unique_ptr<StateMachine>> machines_;
  std::vector<Command> log_;
  std::vector<std::size_t> applied_;  ///< per replica: log prefix applied
  std::vector<bool> last_appliers_;
  int instances_started_ = 0;
};

}  // namespace timing

// State-machine replication on top of the consensus library: a sequence
// of consensus instances, one per log slot, each deciding the command
// that every replica then applies.
//
// Two drivers:
//  * SmrGroup - deterministic, engine-based (lock-step rounds over a
//    TimelinessSampler): the form used by tests and simulation studies.
//    It shares its engine set-up, decided log and log replay with
//    ReplicatedLog through smr/core.hpp;
//  * SmrNode - deployment-shaped (one object per node over a Transport,
//    using the Section 5.1 round synchronization): the form used by the
//    examples and the UDP integration tests. Successive instances use
//    disjoint wire round ranges so packets of instance k can never
//    confuse instance k+1.
//
// The paper's stable-leader observation is what makes this practical:
// "the same leader may persist for numerous instances of consensus
// (possibly thousands)", so Algorithm 2's O(n) stable-state messaging is
// the steady-state cost of the whole replicated service.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/transport.hpp"
#include "roundsync/roundsync.hpp"
#include "smr/core.hpp"

namespace timing {

/// First wire round of instance `inst` under a per-instance stride,
/// computed in 64 bits and TM_CHECKed to fit Round — at throughput-scale
/// instance counts the 32-bit product silently wrapped and violated the
/// no-overlap invariant.
Round smr_first_round(int inst, Round instance_round_stride);

// ---------------------------------------------------------------------
// Deterministic, engine-based replication.

struct SmrGroupConfig {
  int n = 5;
  AlgorithmKind algorithm = AlgorithmKind::kWlm;
  ProcessId leader = 0;       ///< designated leader (ignored with election)
  bool use_election = false;  ///< wrap protocols in OmegaElection
  int max_rounds_per_instance = 500;
};

struct SmrInstanceResult {
  bool decided = false;
  Value command = kNoValue;
  Round rounds = 0;  ///< rounds the instance ran
  /// Which replicas applied this instance's command (alive at decision,
  /// including any log suffix they replayed to catch up). Empty when
  /// undecided.
  std::vector<bool> applied;
};

class SmrGroup {
 public:
  /// One state machine per replica (machines.size() == cfg.n).
  SmrGroup(SmrGroupConfig cfg,
           std::vector<std::unique_ptr<StateMachine>> machines);

  /// Run one consensus instance over the given network; proposals[i] is
  /// replica i's pending command (use kNoopCommand when idle). On global
  /// decision every surviving replica applies the decided command.
  /// `crash_rounds` (optional, one entry per replica, 0 = never) injects
  /// crash failures; pass the same vector to the network's ScheduleConfig
  /// so the model's timeliness guarantees refer to correct processes.
  /// Crashed replicas' machines stop applying commands; a replica that is
  /// alive again in a later instance replays the decided-log suffix it
  /// missed before applying the new command (log replay on recovery), so
  /// surviving replicas never silently diverge. `max_rounds` < 0 uses
  /// cfg.max_rounds_per_instance.
  SmrInstanceResult run_instance(const std::vector<Command>& proposals,
                                 TimelinessSampler& network,
                                 const std::vector<Round>* crash_rounds =
                                     nullptr,
                                 int max_rounds = -1);

  /// The decided command log (one entry per decided instance, in order).
  const std::vector<Command>& log() const noexcept { return core_.log(); }

  int instances_decided() const noexcept {
    return static_cast<int>(core_.log().size());
  }
  const StateMachine& machine(ProcessId i) const { return core_.machine(i); }
  const SmrCore& core() const noexcept { return core_; }

  /// Install a span tracer (null disables). Each run_instance call becomes
  /// an `instance` span (keyed by a monotone per-group ordinal) with the
  /// engine's `round` spans as children and an `apply` span around the
  /// log-application loop.
  void set_span_tracer(SpanTracer* spans) noexcept { spans_ = spans; }

  /// True iff all replicas' fingerprints agree.
  bool consistent() const { return core_.consistent(); }
  /// Consistency restricted to a subset (e.g. the survivors of a crash).
  bool consistent_among(const std::vector<bool>& include) const {
    return core_.consistent_among(include);
  }

 private:
  SmrGroupConfig cfg_;
  SmrCore core_;
  SpanTracer* spans_ = nullptr;
};

// ---------------------------------------------------------------------
// Network replica (one per node, run concurrently).

struct SmrNodeConfig {
  int n = 0;
  ProcessId self = kNoProcess;
  double timeout_ms = 50.0;
  int max_rounds_per_instance = 500;
  ProcessId leader = 0;  ///< designated leader (SmrNode never elects)
  std::vector<double> one_way_ms;  ///< L_i[j] for fast-forward (optional)
  /// Wire-round stride between instances; must exceed any instance's
  /// round count and be identical across replicas.
  Round instance_round_stride = 1 << 20;
  /// Optional span tracer (not owned; one per node). Each instance
  /// becomes an `instance` span; the round-sync runner hangs its `round`
  /// and `msg` spans beneath it, and applies get `apply` spans.
  SpanTracer* spans = nullptr;
};

struct SmrNodeInstance {
  bool decided = false;
  Value command = kNoValue;
  Round decision_round = -1;
  double elapsed_ms = 0.0;
};

class SmrNode {
 public:
  SmrNode(SmrNodeConfig cfg, Transport& transport,
          std::unique_ptr<StateMachine> machine);

  /// Runs `instances` consecutive consensus instances. next_command(i)
  /// supplies this node's proposal for instance i (return kNoopCommand
  /// when idle; a real command is required from at least one replica for
  /// the slot to be useful, but consensus itself does not care).
  std::vector<SmrNodeInstance> run(
      int instances, const std::function<Command(int)>& next_command);

  const StateMachine& machine() const { return *machine_; }

 private:
  SmrNodeConfig cfg_;
  Transport& transport_;
  std::unique_ptr<StateMachine> machine_;
};

}  // namespace timing

// Pipelined, batched multi-decree replication (ROADMAP open item 1):
// the throughput-shaped form of src/smr/. Where SmrGroup runs one
// consensus instance to completion before starting the next,
// ReplicatedLog keeps up to `pipeline` instances in flight on one
// shared tick timeline — every tick() advances EVERY in-flight
// instance's engine by exactly one round — and packs up to `batch`
// pending commands into a single decree per log slot (with a flush
// deadline so a trickle of traffic still commits).
//
// The decree a slot's replicas propose is not the commands themselves
// (a batch does not fit the 64-bit value domain) but a slot-tagged
// ordinal every replica derives identically; validity then pins the
// decided value to that ordinal, and the batch's commands are applied
// from the slot's own record. Slots may DECIDE out of order — a later
// slot's instance can finish while an earlier one retries — but they
// COMMIT strictly in slot order behind a gap-aware commit index, so
// every replica applies the same command sequence. Engine set-up, the
// decided log and log replay on recovery are SmrGroup's, shared through
// smr/core.hpp; only the decision policy differs.
//
// This is the engine-based analogue of Nerio-style edict ordering: one
// stable leader drives many overlapped decrees, and the paper's
// stable-leader observation ("the same leader may persist for numerous
// instances of consensus") is what makes the pipeline's steady state
// cheap.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "smr/core.hpp"

namespace timing {

struct ReplicatedLogConfig {
  int n = 5;
  AlgorithmKind algorithm = AlgorithmKind::kWlm;
  ProcessId leader = 0;  ///< designated leader (the log never elects)
  int pipeline = 8;      ///< max consensus instances in flight
  int batch = 4;         ///< max commands per decree
  /// A non-empty open batch is sealed after waiting this many ticks even
  /// if it never fills (the flush deadline).
  int flush_ticks = 2;
  int max_rounds_per_instance = 500;
  /// Attempts per slot before the slot's commands are abandoned (each
  /// attempt gets a fresh environment from the factory).
  int max_attempts_per_slot = 8;
  /// Optional span tracer (not owned). Each batch becomes a `batch` span
  /// with a cause edge from every submitted op span; each slot a `slot`
  /// span (child of its batch) with per-attempt `instance` children and
  /// a slot<-instance cause edge at decision; applies get `apply` spans.
  SpanTracer* spans = nullptr;
};

/// The network of one attempt of one slot's consensus instance: the
/// caller decides what the network does per (slot, attempt).
using SlotEnvFactory = std::function<InstanceEnv(int slot, int attempt)>;

/// One command riding a slot, as the caller submitted it.
struct LogOp {
  Command cmd = kNoopCommand;
  long long submit_tick = 0;  ///< tick() count when submitted
  std::uint64_t op_span = 0;  ///< caller's op span id (0 = none)
};

/// A committed (or abandoned) slot, in commit order.
struct SlotRecord {
  int slot = 0;
  bool committed = false;     ///< false = abandoned after max attempts
  int attempts = 1;           ///< consensus attempts the slot took
  Round rounds = 0;           ///< rounds of the final attempt
  long long sealed_tick = 0;  ///< when the batch was sealed into the slot
  long long decided_tick = 0; ///< when the deciding attempt finished
  long long committed_tick = 0;  ///< when the slot applied (in log order)
  std::vector<LogOp> ops;
  /// Which replicas applied this slot's commands (alive at decision plus
  /// any replayed suffix). Empty when abandoned.
  std::vector<bool> applied;
};

class ReplicatedLog {
 public:
  /// One state machine per replica (machines.size() == cfg.n).
  ReplicatedLog(ReplicatedLogConfig cfg,
                std::vector<std::unique_ptr<StateMachine>> machines,
                SlotEnvFactory env_of);
  ~ReplicatedLog();  // out of line: Flight is incomplete here

  /// Queue a command into the open batch. Sealing happens on fullness
  /// (immediately) or at the flush deadline (next tick); the slot starts
  /// once the pipeline has room. `op_span` annotates the batch span.
  void submit(Command cmd, std::uint64_t op_span = 0);

  /// Advance virtual time by one tick: seal an expired open batch, start
  /// sealed slots while the pipeline has room, step every in-flight
  /// instance one round, and commit decided slots in log order.
  void tick();

  /// True when nothing is submitted, sealed or in flight — every
  /// accepted command has committed (or been abandoned).
  bool drained() const noexcept {
    return open_.empty() && sealed_.empty() && flight_.empty();
  }

  long long now() const noexcept { return tick_; }
  int slots_started() const noexcept { return next_slot_; }
  int slots_committed() const noexcept { return slots_committed_; }
  int slots_abandoned() const noexcept { return slots_abandoned_; }
  /// Instances in flight right now (<= cfg.pipeline).
  int in_flight() const noexcept { return static_cast<int>(flight_.size()); }

  /// Committed/abandoned slot records accumulated since the last call,
  /// in commit order (the caller drains them between ticks).
  std::vector<SlotRecord> take_committed();

  /// The flattened decided command log (every committed slot's ops, in
  /// commit order).
  const std::vector<Command>& log() const noexcept { return core_.log(); }
  const StateMachine& machine(ProcessId i) const { return core_.machine(i); }
  const SmrCore& core() const noexcept { return core_; }

  /// True iff all replicas' fingerprints agree. A replica that was
  /// crashed at its last slot's decision is legitimately BEHIND, not
  /// divergent — use consistent_among(alive_at_end()) for runs that end
  /// with crashed replicas.
  bool consistent() const { return core_.consistent(); }
  bool consistent_among(const std::vector<bool>& include) const {
    return core_.consistent_among(include);
  }
  /// Which replicas applied the full log at the last committed slot
  /// (all true before anything committed).
  const std::vector<bool>& alive_at_end() const noexcept {
    return core_.last_appliers();
  }

 private:
  struct Flight;  // one in-flight slot (engine + env + bookkeeping)

  void seal_open_batch();
  void start_ready_slots();
  void start_attempt(Flight& f);
  void step_flights();
  void commit_in_order();

  ReplicatedLogConfig cfg_;
  SmrCore core_;
  SlotEnvFactory env_of_;
  long long tick_ = 0;

  std::vector<LogOp> open_;      ///< the open (unsealed) batch
  long long open_since_ = 0;     ///< tick of the open batch's first op
  int open_slot_ = -1;           ///< slot ordinal the open batch will get
  std::deque<SlotRecord> sealed_;    ///< sealed batches awaiting a pipeline slot
  std::deque<std::unique_ptr<Flight>> flight_;  ///< in flight, slot order

  std::vector<SlotRecord> committed_; ///< drained by take_committed()
  int next_slot_ = 0;        ///< next slot ordinal (== batches opened)
  int commit_index_ = 0;     ///< lowest slot not yet committed/abandoned
  int slots_committed_ = 0;
  int slots_abandoned_ = 0;
};

/// The decree replicas propose for `slot`: a positive slot-tagged value
/// outside the command encodings (never applied to a state machine; the
/// slot's ops are). Exposed for tests.
Value slot_decree(int slot) noexcept;

}  // namespace timing

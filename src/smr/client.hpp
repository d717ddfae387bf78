// Client harness for the linearizability experiments (docs/HISTORY.md):
// a population of closed-loop clients driving register/append operations
// through an engine-based SmrGroup, recording the invoke/ok/fail/info
// history that src/history/ checks.
//
// Completion semantics (the soundness contract the checker relies on):
//  * ok   — the client's command was the instance's decided value; the
//           observed result is read back from a replica that applied it.
//  * fail — the command was proposed into a decided instance and LOST.
//           In this closed-world harness a losing command is provably
//           never applied (only decided commands are applied, and the
//           client never re-proposes a completed op), so `fail` is sound.
//  * info — the op timed out (it stayed open across 3 instances and the
//           last one never decided) or was still open when the trial
//           ended; it may or may not have taken effect as far as the
//           client knows, so the checker treats it as concurrent forever.
//
// After the main (fault-injected) phase, fresh probe clients read every
// key over fault-free instances (up to 4 tries each), anchoring the final
// state in the history — this is what makes lost updates on append keys
// visible.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "obs/trace_event.hpp"
#include "smr/replicated_log.hpp"

namespace timing {

/// Test-only corruption hooks: deliberately violate linearizability so
/// the chaos gate can prove the checker catches real violations.
enum class CorruptMode {
  kNone = 0,
  /// The first probe read that would observe a non-initial register
  /// value reports kRegInitial instead — a stale read that misses every
  /// committed update.
  kStaleRead,
  /// The first append proposal is silently replaced by a noop; when its
  /// instance decides, the append is reported ok anyway — an
  /// acknowledged lost update, exposed by the probe read of the key.
  kLostUpdate,
};

const char* to_string(CorruptMode m) noexcept;
/// Parses a to_string() name ("none" / "stale" / "lost"); returns false
/// on anything else.
bool corrupt_mode_from_string(const char* s, CorruptMode& out) noexcept;
/// Every mode's name, joined by `sep` ("none|stale|lost" for "|"): the
/// `corrupt=` override's help and error texts.
std::string corrupt_mode_names(const char* sep);

struct SmrClientConfig {
  int n = 5;
  AlgorithmKind algorithm = AlgorithmKind::kWlm;
  ProcessId leader = 0;
  int clients = 4;      ///< closed-loop clients (ids 0..clients-1)
  int reg_keys = 2;     ///< keys 0..reg_keys-1: read/write/cas registers
  int append_keys = 1;  ///< keys reg_keys..: read/append hash-chain keys
  int instances = 8;    ///< main-phase consensus instances
  std::uint64_t seed = 1;
  CorruptMode corrupt = CorruptMode::kNone;
  /// Optional span tracer (not owned). Every op becomes an `op` span
  /// keyed (client, rid) with `queue` (invoke -> first proposal) and
  /// `commit` (first proposal -> completion) children. In the serialized
  /// harness each commit span is cause-annotated with every consensus
  /// instance the op was proposed into; in the pipelined one a committed
  /// op's or probe read's commit span gets one edge, to the log slot that
  /// committed it, and ops whose slot was abandoned and timed-out ops get
  /// none. Pipelined probe reads are submitted at once and open no queue
  /// span. Instance/round spans come from the group or log.
  SpanTracer* spans = nullptr;
};

/// Called with the running instance index: 0..cfg.instances-1 are the
/// main phase; every index >= cfg.instances is a probe-phase instance
/// and should be fault-free. (InstanceEnv lives in smr/core.hpp.)
using InstanceEnvFactory = std::function<InstanceEnv(int index)>;

struct SmrClientReport {
  std::vector<TraceEvent> events;  ///< the op history, ts order
  int instances_run = 0;
  int instances_decided = 0;
  int ops_ok = 0;
  int ops_fail = 0;
  int ops_info = 0;  ///< timed out or open at end of trial
  /// Fingerprint agreement among the replicas that applied the full log.
  bool consistent = true;
  /// Final value per key (0..reg_keys+append_keys-1) read from a replica
  /// that applied the full decided log.
  std::vector<Value> final_values;
  /// With a TIMED tracer, every ok op's invoke->completion reading (in
  /// `commit`) and every completed queue span (in `queue`), taken from
  /// the very timestamps the span events carry — so an offline rebuild
  /// from the trace matches this record exactly. Empty otherwise.
  SpanLatencies latencies;
};

SmrClientReport run_smr_clients(const SmrClientConfig& cfg,
                                const InstanceEnvFactory& env_of);

/// Pipelined/batched variant of the harness: the same closed-loop
/// clients and op mix, driven through a ReplicatedLog instead of one
/// serialized instance at a time — 24 submission ticks, then a drain of
/// at most 2000 ticks, at the log's default flush deadline and attempt
/// budget. Instances overlap and ops batch, so the completion semantics
/// shift slightly:
///  * ok   — the op's slot committed; the result is read back from a
///           replica that applied it (session-deduplicated).
///  * fail — the op's slot was abandoned after max_attempts_per_slot;
///           abandoned slots are never applied, so fail stays sound.
///           Every replica proposes the slot's decree, so unlike the
///           serialized harness no op fails by losing a decision.
///  * info — the op stayed open for 40 ticks, or was still open when
///           the trial ended. Its slot MAY still commit afterwards (the
///           batch already holds the command), which is exactly the
///           "unknown, concurrent forever" reading the checker gives
///           info ops.
struct SmrPipelineConfig {
  int pipeline = 8;
  int batch = 4;
  /// Invoked once, after the main phase fully drains and before the
  /// probe reads are submitted. The caller's SlotEnvFactory sees only
  /// (slot, attempt); this hook lets its closure flip to fault-free
  /// environments for every probe-phase slot.
  std::function<void()> on_probe_start;
};

SmrClientReport run_pipelined_smr_clients(const SmrClientConfig& cfg,
                                          const SmrPipelineConfig& pcfg,
                                          const SlotEnvFactory& env_of);

}  // namespace timing

#include "smr/client.hpp"

#include <cstring>
#include <set>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "history/model.hpp"
#include "history/recorder.hpp"
#include "smr/smr.hpp"

namespace timing {

const char* to_string(CorruptMode m) noexcept {
  switch (m) {
    case CorruptMode::kNone: return "none";
    case CorruptMode::kStaleRead: return "stale";
    case CorruptMode::kLostUpdate: return "lost";
  }
  return "none";
}

namespace {

constexpr CorruptMode kCorruptModes[] = {
    CorruptMode::kNone, CorruptMode::kStaleRead, CorruptMode::kLostUpdate};

}  // namespace

bool corrupt_mode_from_string(const char* s, CorruptMode& out) noexcept {
  for (CorruptMode m : kCorruptModes) {
    if (std::strcmp(s, to_string(m)) == 0) {
      out = m;
      return true;
    }
  }
  return false;
}

std::string corrupt_mode_names(const char* sep) {
  std::string out;
  for (CorruptMode m : kCorruptModes) {
    if (!out.empty()) out += sep;
    out += to_string(m);
  }
  return out;
}

namespace {

/// What a main-phase client is doing: its current op and the harness
/// state riding on it. Whether the op is open, and its rid, live in
/// ClientOps.
struct ClientState {
  int open_instances = 0;  ///< serialized: instances the op has been open
  long long submit_tick = 0;  ///< pipelined: tick of submission
  std::uint8_t func = 0;
  std::int32_t key = 0;
  Value a = kNoValue;
  Value b = kNoValue;
  Command cmd = kNoopCommand;
  bool sabotaged = false;  ///< kLostUpdate: this proposal went out as noop
};

/// Nonzero even 16-bit value — the update-value domain of the harness.
/// Register states are therefore 0 (initial), even (writes / cas
/// replacements) or odd (append chains), never anything else.
std::uint16_t even16(Rng& rng) {
  return static_cast<std::uint16_t>(2 + 2 * rng.uniform_int(32766));
}

/// The client's next op, from the mix both harnesses draw: every
/// client's first op is an update (so each seeded trial commits nonzero
/// state the probe reads anchor on); afterwards registers see a 40/40/20
/// read/write/cas mix and append keys a 50/50 read/append mix. Fills
/// func/key/a/b/cmd of `cs` for the op the client invokes as `rid`.
void next_op(Rng& rng, ClientState& cs, ProcessId c, int rid, int total_keys,
             int reg_keys) {
  cs.sabotaged = false;
  std::uint16_t a16 = 0;
  std::uint16_t b16 = 0;
  if (rid == 1) {
    cs.key = c % total_keys;
    if (cs.key < reg_keys) {
      cs.func = op_func::kWrite;
      a16 = even16(rng);
    } else {
      cs.func = op_func::kAppend;
      a16 = static_cast<std::uint16_t>(1 + rng.uniform_int(65535));
    }
  } else {
    cs.key = static_cast<std::int32_t>(
        rng.uniform_int(static_cast<std::uint64_t>(total_keys)));
    if (cs.key < reg_keys) {
      const std::uint64_t pick = rng.uniform_int(10);
      if (pick < 4) {
        cs.func = op_func::kRead;
      } else if (pick < 8) {
        cs.func = op_func::kWrite;
        a16 = even16(rng);
      } else {
        cs.func = op_func::kCas;
        a16 = even16(rng);
        b16 = even16(rng);
      }
    } else {
      if (rng.uniform_int(2) == 0) {
        cs.func = op_func::kRead;
      } else {
        cs.func = op_func::kAppend;
        a16 = static_cast<std::uint16_t>(1 + rng.uniform_int(65535));
      }
    }
  }
  const bool has_a = cs.func != op_func::kRead;
  const bool has_b = cs.func == op_func::kCas;
  cs.a = has_a ? static_cast<Value>(a16) : kNoValue;
  cs.b = has_b ? static_cast<Value>(b16) : kNoValue;
  cs.cmd = make_register_command(cs.func, rid, c, cs.key, a16, b16);
}

// Fixed phases of the two harnesses.
constexpr int kOpTimeoutInstances = 3;  ///< serialized: open instances -> info
constexpr int kProbeAttempts = 4;       ///< tries per probe read
constexpr int kPipelineTicks = 24;      ///< pipelined: submission ticks
constexpr int kOpTimeoutTicks = 40;     ///< pipelined: open ticks -> info
constexpr int kDrainTicks = 2000;       ///< pipelined: tick budget per drain

/// Checks the config both harnesses share; returns the key count.
int checked_total_keys(const SmrClientConfig& cfg) {
  const int total_keys = cfg.reg_keys + cfg.append_keys;
  TM_CHECK(cfg.n > 1, "replication needs n > 1");
  TM_CHECK(cfg.clients > 0, "need at least one client");
  TM_CHECK(total_keys > 0, "need at least one key");
  TM_CHECK(cfg.clients + total_keys <= 255 && total_keys <= 255,
           "client/key ids must fit the register command encoding");
  return total_keys;
}

std::vector<std::unique_ptr<StateMachine>> register_machines(int n) {
  std::vector<std::unique_ptr<StateMachine>> machines;
  for (int i = 0; i < n; ++i) {
    machines.push_back(std::make_unique<RegisterStateMachine>());
  }
  return machines;
}

/// A replica that applied the commit `applied` marks (hence the whole log
/// prefix up to it).
const RegisterStateMachine& applier(const SmrCore& core,
                                    const std::vector<bool>& applied) {
  for (std::size_t i = 0; i < applied.size(); ++i) {
    if (applied[i]) {
      return static_cast<const RegisterStateMachine&>(
          core.machine(static_cast<ProcessId>(i)));
    }
  }
  TM_CHECK(false, "commit with no live applier");
  return static_cast<const RegisterStateMachine&>(core.machine(0));
}

/// kStaleRead: the first probe read that would observe a committed
/// update reports kRegInitial instead, missing every committed update.
Value probe_result(const SmrClientConfig& cfg, bool& stale_done,
                   Value result) {
  if (cfg.corrupt != CorruptMode::kStaleRead || stale_done ||
      result == kRegInitial) {
    return result;
  }
  stale_done = true;
  return kRegInitial;
}

/// Fingerprint agreement among the replicas that applied the last commit,
/// and each key's final value read from one of them (every replica is
/// still initial, and all agree, before anything commits).
void read_final_state(const SmrCore& core, int total_keys,
                      SmrClientReport& rep) {
  rep.consistent = core.consistent_among(core.last_appliers());
  const RegisterStateMachine& m = applier(core, core.last_appliers());
  for (std::int32_t k = 0; k < total_keys; ++k) {
    rep.final_values.push_back(m.value(k));
  }
}

/// The one op lifecycle both harnesses drive every op and probe read
/// through: invoke, wait (a pipelined probe read, submitted at once,
/// skips it), propose, cause (the serialized harness names every instance
/// that carried the proposal, the pipelined one the slot that committed
/// an op or probe read), and one of ok, fail or info. Each step writes the
/// op's history event, report counter and op/queue/commit spans. With a
/// timed tracer, the queue and commit latencies in the report are the
/// differences of the very timestamps the span events carry, so
/// trace_tool's offline rebuild equals them. Ops are keyed by client id
/// (probe clients follow the main ones), one open op per client; a
/// client's rids count up from 1.
class ClientOps {
 public:
  ClientOps(const SmrClientConfig& cfg, int total_keys, SmrClientReport& rep)
      : spans_(cfg.spans != nullptr && cfg.spans->enabled() ? cfg.spans
                                                            : nullptr),
        timed_(spans_ != nullptr && spans_->timed()),
        rep_(rep),
        ops_(static_cast<std::size_t>(cfg.clients + total_keys)) {}

  bool open(ProcessId c) const { return op(c).stage != Stage::kClosed; }

  /// The rid the client's next invoke takes.
  int next_rid(ProcessId c) const { return op(c).rid + 1; }

  /// The client invokes its next op: its history event and its op span.
  void invoke(ProcessId c, std::uint8_t func, std::int32_t key,
              Value a = kNoValue, Value b = kNoValue) {
    Op& o = op(c);
    ++o.rid;
    o.stage = Stage::kInvoked;
    rec_.invoke(c, func, key, o.rid, a, b);
    if (spans_ != nullptr) {
      o.t_op = spans_->begin(id(span_kind::kOp, c), 0, span_kind::kOp);
    }
  }

  /// The op waits for its first proposal: its queue span.
  void wait(ProcessId c) {
    Op& o = op(c);
    o.stage = Stage::kQueued;
    if (spans_ != nullptr) {
      o.t_queue = spans_->begin(id(span_kind::kQueue, c),
                                id(span_kind::kOp, c), span_kind::kQueue);
    }
  }

  /// The op's first proposal (later ones change nothing): its queue span,
  /// if it has one, ends and its commit span begins.
  void propose(ProcessId c) {
    Op& o = op(c);
    if (o.stage == Stage::kCommitting) return;
    if (o.stage == Stage::kQueued) end_queue(c, o);
    o.stage = Stage::kCommitting;
    if (spans_ != nullptr) {
      spans_->begin(id(span_kind::kCommit, c), id(span_kind::kOp, c),
                    span_kind::kCommit);
    }
  }

  /// Consensus instance or log slot `ordinal` (its span is of `kind`)
  /// carried the op's proposal.
  void cause(ProcessId c, std::uint8_t kind, int ordinal) {
    if (spans_ == nullptr) return;
    spans_->cause(id(span_kind::kCommit, c),
                  make_span_id(kind, static_cast<std::uint64_t>(ordinal)),
                  span_kind::kCommit);
  }

  void ok(ProcessId c, Value result) {
    rec_.ok(c, result);
    ++rep_.ops_ok;
    close(c, true);
  }
  void fail(ProcessId c) {
    rec_.fail(c);
    ++rep_.ops_fail;
    close(c, false);
  }
  void info(ProcessId c) {
    rec_.info(c);
    ++rep_.ops_info;
    close(c, false);
  }

  /// Ops of clients [from, to) still open when their phase ends count as
  /// info. They get no completion event, and their spans stay open.
  void count_open(ProcessId from, ProcessId to) {
    for (ProcessId c = from; c < to; ++c) rep_.ops_info += open(c) ? 1 : 0;
  }

  /// The op span the replicated log's batch span names as a cause (0
  /// when spans are off).
  std::uint64_t op_span(ProcessId c) const {
    return spans_ != nullptr ? id(span_kind::kOp, c) : 0;
  }

  const std::vector<TraceEvent>& events() const { return rec_.events(); }

 private:
  enum class Stage : std::uint8_t { kClosed, kInvoked, kQueued, kCommitting };
  struct Op {
    Stage stage = Stage::kClosed;
    int rid = 0;            ///< the latest op's rid (0 before the first)
    long long t_op = 0;     ///< op-span begin reading
    long long t_queue = 0;  ///< queue-span begin reading
  };

  Op& op(ProcessId c) { return ops_[static_cast<std::size_t>(c)]; }
  const Op& op(ProcessId c) const { return ops_[static_cast<std::size_t>(c)]; }

  /// The id of the client's current op's span of `kind`.
  std::uint64_t id(std::uint8_t kind, ProcessId c) const {
    return make_span_id(kind, static_cast<std::uint64_t>(c),
                        static_cast<std::uint64_t>(op(c).rid));
  }

  void end_queue(ProcessId c, const Op& o) {
    if (spans_ == nullptr) return;
    const long long t =
        spans_->end(id(span_kind::kQueue, c), span_kind::kQueue);
    if (timed_) rep_.latencies.queue.record(t - o.t_queue);
  }

  void close(ProcessId c, bool committed_ok) {
    Op& o = op(c);
    if (o.stage == Stage::kQueued) end_queue(c, o);
    if (spans_ != nullptr) {
      if (o.stage == Stage::kCommitting) {
        spans_->end(id(span_kind::kCommit, c), span_kind::kCommit);
      }
      const long long t = spans_->end(id(span_kind::kOp, c), span_kind::kOp);
      if (committed_ok && timed_) rep_.latencies.commit.record(t - o.t_op);
    }
    o.stage = Stage::kClosed;
  }

  SpanTracer* spans_;  ///< null when spans are off
  bool timed_;         ///< spans carry timestamps: record latencies
  SmrClientReport& rep_;
  HistoryRecorder rec_;
  std::vector<Op> ops_;
};

}  // namespace

SmrClientReport run_smr_clients(const SmrClientConfig& cfg,
                                const InstanceEnvFactory& env_of) {
  const int total_keys = checked_total_keys(cfg);
  TM_CHECK(cfg.instances > 0, "bad phases");

  SmrGroupConfig gcfg;
  gcfg.n = cfg.n;
  gcfg.algorithm = cfg.algorithm;
  gcfg.leader = cfg.leader;
  SmrGroup group(gcfg, register_machines(cfg.n));
  group.set_span_tracer(cfg.spans);

  Rng rng(cfg.seed);
  SmrClientReport rep;
  ClientOps ops(cfg, total_keys, rep);
  std::vector<ClientState> clients(static_cast<std::size_t>(cfg.clients));
  bool stale_done = false;
  bool lost_done = false;

  auto run_one = [&](const std::vector<Command>& proposals) {
    InstanceEnv env = env_of(rep.instances_run++);
    TM_CHECK(env.sampler != nullptr, "instance env needs a sampler");
    const std::vector<Round>* crashes =
        env.crash_rounds.empty() ? nullptr : &env.crash_rounds;
    return group.run_instance(proposals, *env.sampler, crashes,
                              env.max_rounds);
  };
  const SmrCore& core = group.core();

  // ------------------------------------------------------- main phase --
  for (int inst = 0; inst < cfg.instances; ++inst) {
    for (ProcessId c = 0; c < cfg.clients; ++c) {
      if (ops.open(c)) continue;
      ClientState& cs = clients[static_cast<std::size_t>(c)];
      cs.open_instances = 0;
      next_op(rng, cs, c, ops.next_rid(c), total_keys, cfg.reg_keys);
      ops.invoke(c, cs.func, cs.key, cs.a, cs.b);
      ops.wait(c);
    }
    // Each client submits through replica (c mod n); a replica proposes
    // the longest-open op among its clients (ties to the lowest id).
    std::vector<Command> proposals(static_cast<std::size_t>(cfg.n),
                                   kNoopCommand);
    std::vector<ProcessId> proposer(static_cast<std::size_t>(cfg.n),
                                    kNoProcess);
    for (ProcessId c = 0; c < cfg.clients; ++c) {
      if (!ops.open(c)) continue;
      const ClientState& cs = clients[static_cast<std::size_t>(c)];
      ProcessId& cur = proposer[static_cast<std::size_t>(c % cfg.n)];
      if (cur == kNoProcess ||
          cs.open_instances >
              clients[static_cast<std::size_t>(cur)].open_instances) {
        cur = c;
      }
    }
    std::set<ProcessId> proposed;
    bool sabotaged_this_instance = false;
    for (ProcessId i = 0; i < cfg.n; ++i) {
      const ProcessId c = proposer[static_cast<std::size_t>(i)];
      if (c == kNoProcess) continue;
      ClientState& cs = clients[static_cast<std::size_t>(c)];
      if (cfg.corrupt == CorruptMode::kLostUpdate && !lost_done &&
          !sabotaged_this_instance && cs.func == op_func::kAppend) {
        proposals[static_cast<std::size_t>(i)] = kNoopCommand;
        cs.sabotaged = true;
        sabotaged_this_instance = true;
      } else {
        proposals[static_cast<std::size_t>(i)] = cs.cmd;
        cs.sabotaged = false;
      }
      proposed.insert(c);
      ops.propose(c);
    }

    const SmrInstanceResult r = run_one(proposals);
    // `proposed` is a sorted set, so cause-edge order is stable.
    for (ProcessId c : proposed) {
      ops.cause(c, span_kind::kInstance, rep.instances_run - 1);
    }
    for (ProcessId c = 0; c < cfg.clients; ++c) {
      if (ops.open(c)) ++clients[static_cast<std::size_t>(c)].open_instances;
    }

    if (r.decided) {
      if (is_register_command(r.command)) {
        const ProcessId wc = reg_command_client(r.command);
        TM_CHECK(wc >= 0 && wc < cfg.clients, "decided client out of range");
        TM_CHECK(ops.open(wc) &&
                     clients[static_cast<std::size_t>(wc)].cmd == r.command,
                 "decided command must be a proposed client op");
        Value result = kNoValue;
        TM_CHECK(applier(core, r.applied).last_result(wc, result),
                 "winner must have a session result");
        ops.ok(wc, result);
      }
      if (sabotaged_this_instance) {
        // Acknowledge the sabotaged append even though a noop went out
        // in its place: the command was never proposed, hence never
        // applied — an acknowledged lost update. The ok completes before
        // the probe read is invoked, so real-time order forces the probe
        // to observe the append; it cannot, and the checker rejects.
        for (ProcessId c = 0; c < cfg.clients; ++c) {
          const ClientState& cs = clients[static_cast<std::size_t>(c)];
          if (!ops.open(c) || !cs.sabotaged) continue;
          ops.ok(c, register_step(applier(core, r.applied).value(cs.key),
                                  cs.func, cs.a, cs.b)
                        .result);
          lost_done = true;
          break;
        }
      }
      // Everyone else who was proposed into this decided instance lost:
      // their command is provably never applied in this harness.
      for (ProcessId c : proposed) {
        if (ops.open(c)) ops.fail(c);
      }
    } else {
      // Undecided instance: close stragglers as info (timeout — unknown
      // whether a future quorum saw the command, so not a fail).
      for (ProcessId c = 0; c < cfg.clients; ++c) {
        if (ops.open(c) &&
            clients[static_cast<std::size_t>(c)].open_instances >=
                kOpTimeoutInstances) {
          ops.info(c);
        }
      }
    }
  }
  ops.count_open(0, cfg.clients);

  // ------------------------------------------------------ probe phase --
  // Fresh clients read every key over fault-free instances, anchoring
  // the final state in the history.
  for (std::int32_t k = 0; k < total_keys; ++k) {
    const ProcessId pc = cfg.clients + k;
    const Command cmd = make_register_command(op_func::kRead, 1, pc, k, 0, 0);
    ops.invoke(pc, op_func::kRead, k);
    ops.wait(pc);
    for (int attempt = 0; attempt < kProbeAttempts && ops.open(pc);
         ++attempt) {
      std::vector<Command> proposals(static_cast<std::size_t>(cfg.n),
                                     kNoopCommand);
      proposals[static_cast<std::size_t>(pc % cfg.n)] = cmd;
      ops.propose(pc);
      const SmrInstanceResult r = run_one(proposals);
      ops.cause(pc, span_kind::kInstance, rep.instances_run - 1);
      if (!r.decided || r.command != cmd) continue;
      Value result = kNoValue;
      TM_CHECK(applier(core, r.applied).last_result(pc, result),
               "probe must have a session result");
      ops.ok(pc, probe_result(cfg, stale_done, result));
    }
  }
  ops.count_open(cfg.clients, cfg.clients + total_keys);

  rep.events = ops.events();
  rep.instances_decided = group.instances_decided();
  read_final_state(core, total_keys, rep);
  return rep;
}

SmrClientReport run_pipelined_smr_clients(const SmrClientConfig& cfg,
                                          const SmrPipelineConfig& pcfg,
                                          const SlotEnvFactory& env_of) {
  const int total_keys = checked_total_keys(cfg);

  ReplicatedLogConfig lcfg;
  lcfg.n = cfg.n;
  lcfg.algorithm = cfg.algorithm;
  lcfg.leader = cfg.leader;
  lcfg.pipeline = pcfg.pipeline;
  lcfg.batch = pcfg.batch;
  lcfg.spans = cfg.spans;
  ReplicatedLog rlog(lcfg, register_machines(cfg.n), env_of);

  Rng rng(cfg.seed);
  SmrClientReport rep;
  ClientOps ops(cfg, total_keys, rep);
  std::vector<ClientState> clients(static_cast<std::size_t>(cfg.clients));
  bool stale_done = false;
  ProcessId lost_client = kNoProcess;  ///< client whose append went out as noop
  /// Probe reads submitted and not yet resolved, by key.
  std::vector<bool> probe_in_flight(static_cast<std::size_t>(total_keys));
  const SmrCore& core = rlog.core();

  // Invoke + submit in one step: the op enters the open batch the same
  // tick it is invoked, so the queue span covers only the client-side
  // handoff and the commit span covers batch wait + consensus + apply.
  auto start_and_submit = [&](ProcessId c) {
    ClientState& cs = clients[static_cast<std::size_t>(c)];
    cs.submit_tick = rlog.now();
    next_op(rng, cs, c, ops.next_rid(c), total_keys, cfg.reg_keys);
    ops.invoke(c, cs.func, cs.key, cs.a, cs.b);
    ops.wait(c);
    ops.propose(c);
    if (cfg.corrupt == CorruptMode::kLostUpdate &&
        lost_client == kNoProcess && cs.func == op_func::kAppend) {
      // The append is silently replaced by a noop in the batch; when its
      // slot commits it will be acknowledged ok anyway — an acknowledged
      // lost update the probe read of the key then exposes.
      rlog.submit(kNoopCommand, ops.op_span(c));
      cs.sabotaged = true;
      lost_client = c;
    } else {
      rlog.submit(cs.cmd, ops.op_span(c));
    }
  };

  // Resolve every op riding a freshly committed (or abandoned) slot.
  auto handle_committed = [&]() {
    for (const SlotRecord& sr : rlog.take_committed()) {
      rep.instances_run += sr.attempts;
      if (sr.committed) ++rep.instances_decided;
      for (const LogOp& op : sr.ops) {
        // The sabotaged append rides as the only noop the harness ever
        // submits; everything else decodes to its submitting client.
        const bool is_lost = op.cmd == kNoopCommand;
        const ProcessId c =
            is_lost ? lost_client : reg_command_client(op.cmd);
        if (c >= cfg.clients) {
          // Probe read: a committed slot completes it; an abandoned slot
          // leaves it open for a resubmission in the probe loop.
          const auto k = static_cast<std::size_t>(c - cfg.clients);
          if (sr.committed && probe_in_flight[k]) {
            Value result = kNoValue;
            TM_CHECK(applier(core, sr.applied).last_result(c, result),
                     "probe must have a session result");
            ops.cause(c, span_kind::kSlot, sr.slot);
            ops.ok(c, probe_result(cfg, stale_done, result));
          }
          probe_in_flight[k] = false;
          continue;
        }
        const ClientState& cs = clients[static_cast<std::size_t>(c)];
        const bool current =
            ops.open(c) && (is_lost ? cs.sabotaged : cs.cmd == op.cmd);
        if (!current) continue;  // already closed as info (timeout)
        if (!sr.committed) {
          // Abandoned slots are never applied anywhere, so fail is
          // sound (the command provably never takes effect).
          ops.fail(c);
          continue;
        }
        ops.cause(c, span_kind::kSlot, sr.slot);
        Value result = kNoValue;
        if (is_lost) {
          // Fabricate the result the append WOULD have produced.
          result = register_step(applier(core, sr.applied).value(cs.key),
                                 cs.func, cs.a, cs.b)
                       .result;
        } else {
          TM_CHECK(applier(core, sr.applied).last_result(c, result),
                   "committed op must have a session result");
        }
        ops.ok(c, result);
      }
    }
  };

  auto timeout_scan = [&]() {
    for (ProcessId c = 0; c < cfg.clients; ++c) {
      // The command stays in its batch and may commit later; info keeps
      // the op concurrent forever, which covers both outcomes.
      if (ops.open(c) &&
          rlog.now() - clients[static_cast<std::size_t>(c)].submit_tick >=
              kOpTimeoutTicks) {
        ops.info(c);
      }
    }
  };

  // ------------------------------------------------------- main phase --
  for (int t = 0; t < kPipelineTicks; ++t) {
    for (ProcessId c = 0; c < cfg.clients; ++c) {
      if (!ops.open(c)) start_and_submit(c);
    }
    rlog.tick();
    handle_committed();
    timeout_scan();
  }
  // Drain: no new submissions; every accepted command resolves (commit
  // or abandonment) within the attempt budget.
  for (int t = 0; t < kDrainTicks && !rlog.drained(); ++t) {
    rlog.tick();
    handle_committed();
    timeout_scan();
  }
  ops.count_open(0, cfg.clients);

  // ------------------------------------------------------ probe phase --
  // Fresh clients read every key, one probe client per key with rid 1.
  // Every main-phase slot has resolved (the drain loop above), so
  // pcfg.on_probe_start can flip the env factory to fault-free
  // environments for all probe slots. The first round invokes and
  // submits every read; later rounds resubmit the reads whose slot was
  // abandoned.
  if (pcfg.on_probe_start) pcfg.on_probe_start();
  for (int attempt = 0; attempt < kProbeAttempts; ++attempt) {
    bool any = false;
    for (std::int32_t k = 0; k < total_keys; ++k) {
      const ProcessId pc = cfg.clients + k;
      if (attempt == 0) {
        ops.invoke(pc, op_func::kRead, k);
        ops.propose(pc);  // submitted at once: no queue span
      } else if (!ops.open(pc) ||
                 probe_in_flight[static_cast<std::size_t>(k)]) {
        continue;
      }
      probe_in_flight[static_cast<std::size_t>(k)] = true;
      any = true;
      rlog.submit(make_register_command(op_func::kRead, 1, pc, k, 0, 0),
                  ops.op_span(pc));
    }
    if (!any) break;
    for (int t = 0; t < kDrainTicks && !rlog.drained(); ++t) {
      rlog.tick();
      handle_committed();
    }
  }
  ops.count_open(cfg.clients, cfg.clients + total_keys);

  rep.events = ops.events();
  read_final_state(core, total_keys, rep);
  return rep;
}

}  // namespace timing

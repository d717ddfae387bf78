#include "smr/client.hpp"

#include <cstring>
#include <set>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "history/model.hpp"
#include "history/recorder.hpp"
#include "obs/metrics.hpp"
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

bool corrupt_mode_from_string(const char* s, CorruptMode& out) noexcept {
  if (std::strcmp(s, "none") == 0) {
    out = CorruptMode::kNone;
    return true;
  }
  if (std::strcmp(s, "stale") == 0) {
    out = CorruptMode::kStaleRead;
    return true;
  }
  if (std::strcmp(s, "lost") == 0) {
    out = CorruptMode::kLostUpdate;
    return true;
  }
  return false;
}

namespace {

struct ClientState {
  bool busy = false;
  int rid = 0;             ///< request id of the current op
  int next_rid = 1;
  int ops_done = 0;
  int open_instances = 0;  ///< instances the current op has been open
  std::uint8_t func = 0;
  std::int32_t key = 0;
  Value a = kNoValue;
  Value b = kNoValue;
  Command cmd = kNoopCommand;
  bool sabotaged = false;  ///< kLostUpdate: this proposal went out as noop
  bool queued = false;     ///< span state: current op reached a proposal
  long long t_op = 0;      ///< op-span begin reading (timed tracer)
  long long t_queue = 0;   ///< queue-span begin reading
  long long submit_tick = 0;  ///< pipelined harness: tick of submission

  void close() {  ///< the current op completed
    busy = false;
    ++ops_done;
  }
};

/// Nonzero even 16-bit value — the update-value domain of the harness.
/// Register states are therefore 0 (initial), even (writes / cas
/// replacements) or odd (append chains), never anything else.
std::uint16_t even16(Rng& rng) {
  return static_cast<std::uint16_t>(2 + 2 * rng.uniform_int(32766));
}

/// The op mix both harnesses draw: every client's first op is an update
/// (so each seeded trial commits nonzero state the probe reads anchor
/// on); afterwards registers see a 40/40/20 read/write/cas mix and
/// append keys a 50/50 read/append mix. Fills func/key/a/b/cmd of `cs`
/// (rid must already be assigned).
void choose_op(Rng& rng, ClientState& cs, ProcessId c, int total_keys,
               int reg_keys) {
  std::uint16_t a16 = 0;
  std::uint16_t b16 = 0;
  if (cs.ops_done == 0) {
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
  cs.cmd = make_register_command(cs.func, cs.rid, c, cs.key, a16, b16);
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

  SpanTracer* spans = cfg.spans;
  const bool sp_on = spans != nullptr && spans->enabled();
  const bool record_lat =
      sp_on && spans->timed() && cfg.metrics != nullptr;
  group.set_span_tracer(spans);

  Rng rng(cfg.seed);
  HistoryRecorder rec;
  SmrClientReport rep;
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

  auto start_op = [&](ProcessId c) {
    ClientState& cs = clients[static_cast<std::size_t>(c)];
    cs.busy = true;
    cs.open_instances = 0;
    cs.sabotaged = false;
    cs.rid = cs.next_rid++;
    choose_op(rng, cs, c, total_keys, cfg.reg_keys);
    rec.invoke(c, cs.func, cs.key, cs.rid, cs.a, cs.b);
    if (sp_on) {
      const std::uint64_t op_span =
          make_span_id(span_kind::kOp, static_cast<std::uint64_t>(c),
                       static_cast<std::uint64_t>(cs.rid));
      cs.queued = false;
      cs.t_op = spans->begin(op_span, 0, span_kind::kOp);
      cs.t_queue = spans->begin(
          make_span_id(span_kind::kQueue, static_cast<std::uint64_t>(c),
                       static_cast<std::uint64_t>(cs.rid)),
          op_span, span_kind::kQueue);
    }
  };

  // The op reached its first proposal: the queue phase ends and the
  // commit phase begins.
  auto mark_queued = [&](ProcessId c) {
    ClientState& cs = clients[static_cast<std::size_t>(c)];
    if (!sp_on || cs.queued) return;
    cs.queued = true;
    const long long tq = spans->end(
        make_span_id(span_kind::kQueue, static_cast<std::uint64_t>(c),
                     static_cast<std::uint64_t>(cs.rid)),
        span_kind::kQueue);
    if (record_lat) {
      cfg.metrics->latency("op.queue_ns").record(tq - cs.t_queue);
    }
    spans->begin(
        make_span_id(span_kind::kCommit, static_cast<std::uint64_t>(c),
                     static_cast<std::uint64_t>(cs.rid)),
        make_span_id(span_kind::kOp, static_cast<std::uint64_t>(c),
                     static_cast<std::uint64_t>(cs.rid)),
        span_kind::kCommit);
  };

  // Close the op's spans; ok completions feed op.commit_ns from the very
  // readings the span events carry (the offline-rebuild equality).
  auto end_op_spans = [&](ProcessId c, bool committed_ok) {
    if (!sp_on) return;
    ClientState& cs = clients[static_cast<std::size_t>(c)];
    if (cs.queued) {
      spans->end(
          make_span_id(span_kind::kCommit, static_cast<std::uint64_t>(c),
                       static_cast<std::uint64_t>(cs.rid)),
          span_kind::kCommit);
    } else {
      const long long tq = spans->end(
          make_span_id(span_kind::kQueue, static_cast<std::uint64_t>(c),
                       static_cast<std::uint64_t>(cs.rid)),
          span_kind::kQueue);
      if (record_lat) {
        cfg.metrics->latency("op.queue_ns").record(tq - cs.t_queue);
      }
    }
    const long long t = spans->end(
        make_span_id(span_kind::kOp, static_cast<std::uint64_t>(c),
                     static_cast<std::uint64_t>(cs.rid)),
        span_kind::kOp);
    if (committed_ok && record_lat) {
      cfg.metrics->latency("op.commit_ns").record(t - cs.t_op);
    }
  };

  // ------------------------------------------------------- main phase --
  for (int inst = 0; inst < cfg.instances; ++inst) {
    for (ProcessId c = 0; c < cfg.clients; ++c) {
      if (!clients[static_cast<std::size_t>(c)].busy) start_op(c);
    }
    // Each client submits through replica (c mod n); a replica proposes
    // the longest-open op among its clients (ties to the lowest id).
    std::vector<Command> proposals(static_cast<std::size_t>(cfg.n),
                                   kNoopCommand);
    std::vector<ProcessId> proposer(static_cast<std::size_t>(cfg.n),
                                    kNoProcess);
    for (ProcessId c = 0; c < cfg.clients; ++c) {
      const ClientState& cs = clients[static_cast<std::size_t>(c)];
      if (!cs.busy) continue;
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
      mark_queued(c);
    }

    const SmrInstanceResult r = run_one(proposals);
    if (sp_on) {
      // Each proposed op's commit span is caused by the instance that
      // carried it (`proposed` is a sorted set, so edge order is stable).
      const std::uint64_t inst_span = make_span_id(
          span_kind::kInstance,
          static_cast<std::uint64_t>(rep.instances_run - 1));
      for (ProcessId c : proposed) {
        spans->cause(
            make_span_id(
                span_kind::kCommit, static_cast<std::uint64_t>(c),
                static_cast<std::uint64_t>(
                    clients[static_cast<std::size_t>(c)].rid)),
            inst_span, span_kind::kCommit);
      }
    }
    for (ProcessId c = 0; c < cfg.clients; ++c) {
      ClientState& cs = clients[static_cast<std::size_t>(c)];
      if (cs.busy) ++cs.open_instances;
    }

    if (r.decided) {
      if (is_register_command(r.command)) {
        const ProcessId wc = reg_command_client(r.command);
        TM_CHECK(wc >= 0 && wc < cfg.clients, "decided client out of range");
        ClientState& ws = clients[static_cast<std::size_t>(wc)];
        TM_CHECK(ws.busy && ws.cmd == r.command,
                 "decided command must be a proposed client op");
        Value result = kNoValue;
        TM_CHECK(applier(core, r.applied).last_result(wc, result),
                 "winner must have a session result");
        rec.ok(wc, result);
        ++rep.ops_ok;
        end_op_spans(wc, true);
        ws.close();
      }
      if (sabotaged_this_instance) {
        // Acknowledge the sabotaged append even though a noop went out
        // in its place: the command was never proposed, hence never
        // applied — an acknowledged lost update. The ok completes before
        // the probe read is invoked, so real-time order forces the probe
        // to observe the append; it cannot, and the checker rejects.
        for (ProcessId c = 0; c < cfg.clients; ++c) {
          ClientState& cs = clients[static_cast<std::size_t>(c)];
          if (!cs.busy || !cs.sabotaged) continue;
          const Value fabricated =
              register_step(applier(core, r.applied).value(cs.key), cs.func,
                            cs.a, cs.b)
                  .result;
          rec.ok(c, fabricated);
          ++rep.ops_ok;
          lost_done = true;
          end_op_spans(c, true);
          cs.close();
          break;
        }
      }
      // Everyone else who was proposed into this decided instance lost:
      // their command is provably never applied in this harness.
      for (ProcessId c : proposed) {
        ClientState& cs = clients[static_cast<std::size_t>(c)];
        if (!cs.busy) continue;
        rec.fail(c);
        ++rep.ops_fail;
        end_op_spans(c, false);
        cs.close();
      }
    } else {
      // Undecided instance: close stragglers as info (timeout — unknown
      // whether a future quorum saw the command, so not a fail).
      for (ProcessId c = 0; c < cfg.clients; ++c) {
        ClientState& cs = clients[static_cast<std::size_t>(c)];
        if (!cs.busy || cs.open_instances < kOpTimeoutInstances) {
          continue;
        }
        rec.info(c);
        ++rep.ops_info;
        end_op_spans(c, false);
        cs.close();
      }
    }
  }
  // Ops still open when the trial ends stay uncompleted (info).
  for (const ClientState& cs : clients) rep.ops_info += cs.busy ? 1 : 0;

  // ------------------------------------------------------ probe phase --
  // Fresh clients read every key over fault-free instances, anchoring
  // the final state in the history.
  for (std::int32_t k = 0; k < total_keys; ++k) {
    const ProcessId pc = cfg.clients + k;
    const Command cmd = make_register_command(op_func::kRead, 1, pc, k, 0, 0);
    rec.invoke(pc, op_func::kRead, k, 1);
    const std::uint64_t p_op =
        make_span_id(span_kind::kOp, static_cast<std::uint64_t>(pc), 1);
    const std::uint64_t p_queue =
        make_span_id(span_kind::kQueue, static_cast<std::uint64_t>(pc), 1);
    const std::uint64_t p_commit =
        make_span_id(span_kind::kCommit, static_cast<std::uint64_t>(pc), 1);
    long long p_t0 = 0;
    long long p_tq0 = 0;
    bool p_queued = false;
    if (sp_on) {
      p_t0 = spans->begin(p_op, 0, span_kind::kOp);
      p_tq0 = spans->begin(p_queue, p_op, span_kind::kQueue);
    }
    bool done = false;
    for (int attempt = 0; attempt < kProbeAttempts && !done; ++attempt) {
      std::vector<Command> proposals(static_cast<std::size_t>(cfg.n),
                                     kNoopCommand);
      proposals[static_cast<std::size_t>(pc % cfg.n)] = cmd;
      if (sp_on && !p_queued) {
        p_queued = true;
        const long long tq = spans->end(p_queue, span_kind::kQueue);
        if (record_lat) {
          cfg.metrics->latency("op.queue_ns").record(tq - p_tq0);
        }
        spans->begin(p_commit, p_op, span_kind::kCommit);
      }
      const SmrInstanceResult r = run_one(proposals);
      if (sp_on) {
        spans->cause(p_commit,
                     make_span_id(span_kind::kInstance,
                                  static_cast<std::uint64_t>(
                                      rep.instances_run - 1)),
                     span_kind::kCommit);
      }
      if (!r.decided || r.command != cmd) continue;
      Value result = kNoValue;
      TM_CHECK(applier(core, r.applied).last_result(pc, result),
               "probe must have a session result");
      rec.ok(pc, probe_result(cfg, stale_done, result));
      ++rep.ops_ok;
      if (sp_on) {
        spans->end(p_commit, span_kind::kCommit);
        const long long t = spans->end(p_op, span_kind::kOp);
        if (record_lat) {
          cfg.metrics->latency("op.commit_ns").record(t - p_t0);
        }
      }
      done = true;
    }
    if (!done) ++rep.ops_info;  // probe left open (its spans stay open too)
  }

  rep.events = rec.events();
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

  SpanTracer* spans = cfg.spans;
  const bool sp_on = spans != nullptr && spans->enabled();
  const bool record_lat =
      sp_on && spans->timed() && cfg.metrics != nullptr;

  Rng rng(cfg.seed);
  HistoryRecorder rec;
  SmrClientReport rep;
  std::vector<ClientState> clients(static_cast<std::size_t>(cfg.clients));
  bool stale_done = false;
  ProcessId lost_client = kNoProcess;  ///< client whose append went out as noop
  const SmrCore& core = rlog.core();

  auto end_op_spans = [&](ProcessId c, bool committed_ok) {
    if (!sp_on) return;
    ClientState& cs = clients[static_cast<std::size_t>(c)];
    spans->end(
        make_span_id(span_kind::kCommit, static_cast<std::uint64_t>(c),
                     static_cast<std::uint64_t>(cs.rid)),
        span_kind::kCommit);
    const long long t = spans->end(
        make_span_id(span_kind::kOp, static_cast<std::uint64_t>(c),
                     static_cast<std::uint64_t>(cs.rid)),
        span_kind::kOp);
    if (committed_ok && record_lat) {
      cfg.metrics->latency("op.commit_ns").record(t - cs.t_op);
    }
  };

  // Invoke + submit in one step: the op enters the open batch the same
  // tick it is invoked, so the queue span covers only the client-side
  // handoff and the commit span covers batch wait + consensus + apply.
  auto start_and_submit = [&](ProcessId c) {
    ClientState& cs = clients[static_cast<std::size_t>(c)];
    cs.busy = true;
    cs.sabotaged = false;
    cs.submit_tick = rlog.now();
    cs.rid = cs.next_rid++;
    choose_op(rng, cs, c, total_keys, cfg.reg_keys);
    rec.invoke(c, cs.func, cs.key, cs.rid, cs.a, cs.b);
    std::uint64_t op_span = 0;
    if (sp_on) {
      op_span = make_span_id(span_kind::kOp, static_cast<std::uint64_t>(c),
                             static_cast<std::uint64_t>(cs.rid));
      const std::uint64_t q_span =
          make_span_id(span_kind::kQueue, static_cast<std::uint64_t>(c),
                       static_cast<std::uint64_t>(cs.rid));
      cs.t_op = spans->begin(op_span, 0, span_kind::kOp);
      cs.t_queue = spans->begin(q_span, op_span, span_kind::kQueue);
      const long long tq = spans->end(q_span, span_kind::kQueue);
      if (record_lat) {
        cfg.metrics->latency("op.queue_ns").record(tq - cs.t_queue);
      }
      spans->begin(
          make_span_id(span_kind::kCommit, static_cast<std::uint64_t>(c),
                       static_cast<std::uint64_t>(cs.rid)),
          op_span, span_kind::kCommit);
    }
    if (cfg.corrupt == CorruptMode::kLostUpdate &&
        lost_client == kNoProcess && cs.func == op_func::kAppend) {
      // The append is silently replaced by a noop in the batch; when its
      // slot commits it will be acknowledged ok anyway — an acknowledged
      // lost update the probe read of the key then exposes.
      rlog.submit(kNoopCommand, op_span);
      cs.sabotaged = true;
      lost_client = c;
    } else {
      rlog.submit(cs.cmd, op_span);
    }
  };

  // Probe-phase bookkeeping (one probe client per key, rid 1).
  struct ProbeState {
    bool open = false;
    bool done = false;
    int attempts = 0;
    long long t_op = 0;
  };
  std::vector<ProbeState> probes(static_cast<std::size_t>(total_keys));

  auto complete_probe = [&](std::int32_t key,
                            const std::vector<bool>& applied) {
    ProbeState& ps = probes[static_cast<std::size_t>(key)];
    const ProcessId pc = cfg.clients + key;
    if (!ps.open) return;
    ps.open = false;
    Value result = kNoValue;
    TM_CHECK(applier(core, applied).last_result(pc, result),
             "probe must have a session result");
    rec.ok(pc, probe_result(cfg, stale_done, result));
    ++rep.ops_ok;
    ps.done = true;
    if (sp_on) {
      spans->end(make_span_id(span_kind::kCommit,
                              static_cast<std::uint64_t>(pc), 1),
                 span_kind::kCommit);
      const long long t = spans->end(
          make_span_id(span_kind::kOp, static_cast<std::uint64_t>(pc), 1),
          span_kind::kOp);
      if (record_lat) {
        cfg.metrics->latency("op.commit_ns").record(t - ps.t_op);
      }
    }
  };

  // Resolve every op riding a freshly committed (or abandoned) slot.
  auto handle_committed = [&]() {
    for (const SlotRecord& sr : rlog.take_committed()) {
      rep.instances_run += sr.attempts;
      if (sr.committed) ++rep.instances_decided;
      const std::uint64_t slot_span = make_span_id(
          span_kind::kSlot, static_cast<std::uint64_t>(sr.slot));
      for (const LogOp& op : sr.ops) {
        // The sabotaged append rides as the only noop the harness ever
        // submits; everything else decodes to its submitting client.
        const bool is_lost = op.cmd == kNoopCommand;
        const ProcessId c =
            is_lost ? lost_client : reg_command_client(op.cmd);
        if (c >= cfg.clients) {
          // Probe read: a committed slot completes it; an abandoned slot
          // reopens it for a resubmission in the probe loop.
          if (sr.committed) {
            complete_probe(c - cfg.clients, sr.applied);
          } else {
            probes[static_cast<std::size_t>(c - cfg.clients)].open = false;
          }
          continue;
        }
        ClientState& cs = clients[static_cast<std::size_t>(c)];
        const bool current =
            cs.busy && (is_lost ? cs.sabotaged : cs.cmd == op.cmd);
        if (!current) continue;  // already closed as info (timeout)
        if (!sr.committed) {
          // Abandoned slots are never applied anywhere, so fail is
          // sound (the command provably never takes effect).
          rec.fail(c);
          ++rep.ops_fail;
          end_op_spans(c, false);
          cs.close();
          continue;
        }
        if (sp_on) {
          spans->cause(
              make_span_id(span_kind::kCommit, static_cast<std::uint64_t>(c),
                           static_cast<std::uint64_t>(cs.rid)),
              slot_span, span_kind::kCommit);
        }
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
        rec.ok(c, result);
        ++rep.ops_ok;
        end_op_spans(c, true);
        cs.close();
      }
    }
  };

  auto timeout_scan = [&]() {
    for (ProcessId c = 0; c < cfg.clients; ++c) {
      ClientState& cs = clients[static_cast<std::size_t>(c)];
      if (!cs.busy || rlog.now() - cs.submit_tick < kOpTimeoutTicks) {
        continue;
      }
      // The command stays in its batch and may commit later; info keeps
      // the op concurrent forever, which covers both outcomes.
      rec.info(c);
      ++rep.ops_info;
      end_op_spans(c, false);
      cs.close();
    }
  };

  // ------------------------------------------------------- main phase --
  for (int t = 0; t < kPipelineTicks; ++t) {
    for (ProcessId c = 0; c < cfg.clients; ++c) {
      if (!clients[static_cast<std::size_t>(c)].busy) start_and_submit(c);
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
  for (const ClientState& cs : clients) rep.ops_info += cs.busy ? 1 : 0;

  // ------------------------------------------------------ probe phase --
  // Fresh clients read every key. Every main-phase slot has resolved
  // (the drain loop above), so pcfg.on_probe_start can flip the env
  // factory to fault-free environments for all probe slots.
  if (pcfg.on_probe_start) pcfg.on_probe_start();
  for (int attempt = 0; attempt < kProbeAttempts; ++attempt) {
    bool any = false;
    for (std::int32_t k = 0; k < total_keys; ++k) {
      ProbeState& ps = probes[static_cast<std::size_t>(k)];
      if (ps.done || ps.open || ps.attempts >= kProbeAttempts) continue;
      const ProcessId pc = cfg.clients + k;
      const Command cmd =
          make_register_command(op_func::kRead, 1, pc, k, 0, 0);
      std::uint64_t op_span = 0;
      if (ps.attempts == 0) {
        rec.invoke(pc, op_func::kRead, k, 1);
        if (sp_on) {
          op_span = make_span_id(span_kind::kOp,
                                 static_cast<std::uint64_t>(pc), 1);
          ps.t_op = spans->begin(op_span, 0, span_kind::kOp);
          spans->begin(make_span_id(span_kind::kCommit,
                                    static_cast<std::uint64_t>(pc), 1),
                       op_span, span_kind::kCommit);
        }
      } else if (sp_on) {
        op_span = make_span_id(span_kind::kOp,
                               static_cast<std::uint64_t>(pc), 1);
      }
      ps.open = true;
      ++ps.attempts;
      any = true;
      rlog.submit(cmd, op_span);
    }
    if (!any) break;
    for (int t = 0; t < kDrainTicks && !rlog.drained(); ++t) {
      rlog.tick();
      handle_committed();
    }
  }
  for (const ProbeState& ps : probes) {
    if (!ps.done) ++rep.ops_info;  // probe left open (spans stay open)
  }

  rep.events = rec.events();
  read_final_state(core, total_keys, rep);
  return rep;
}

}  // namespace timing

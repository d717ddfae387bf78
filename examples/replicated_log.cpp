// State-machine replication (the paper's motivating use case, [20]): a
// replicated key-value store driven by the library's pipelined,
// batched replicated log - up to `pipeline` consensus instances
// (Algorithm 2) in flight at once, up to `batch` commands per decree.
//
// Commands are submitted tick by tick; batches seal on fullness or at
// the flush deadline, slots may DECIDE out of order (each slot's
// network stabilizes to <>WLM at its own random round) but COMMIT
// strictly in slot order, so all replicas apply the same sequence. One
// replica crashes partway through and stays down: it ends legitimately
// BEHIND, which is why the final check is consistent_among(survivors),
// not consistent().
#include <cstdio>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "models/schedule.hpp"
#include "smr/replicated_log.hpp"

using namespace timing;

int main() {
  constexpr int kN = 5;
  constexpr ProcessId kLeader = 0;
  constexpr ProcessId kCrashed = 3;  // crashes in every slot from #5 on
  constexpr int kCommands = 24;

  ReplicatedLogConfig cfg;
  cfg.n = kN;
  cfg.leader = kLeader;
  cfg.pipeline = 4;
  cfg.batch = 3;
  cfg.flush_ticks = 2;
  std::vector<std::unique_ptr<StateMachine>> machines;
  for (int i = 0; i < kN; ++i) {
    machines.push_back(std::make_unique<KvStateMachine>());
  }

  // Each (slot, attempt) gets its own schedule: chaotic until a random
  // GSR, <>WLM-conforming afterwards. From slot 5 on, replica 3 is
  // crashed from round 1 - decisions still happen (majority alive).
  const SlotEnvFactory env_of = [](int slot, int attempt) {
    ScheduleConfig sched;
    sched.n = kN;
    sched.model = TimingModel::kWlm;
    sched.leader = kLeader;
    Rng rng(0xbeef + 31ULL * static_cast<std::uint64_t>(slot) +
            static_cast<std::uint64_t>(attempt));
    sched.gsr = 1 + static_cast<Round>(rng.uniform_int(10));
    sched.pre_gsr_p = 0.3;
    sched.seed = rng.next();
    InstanceEnv env;
    if (slot >= 5) {
      env.crash_rounds.assign(kN, 0);
      env.crash_rounds[kCrashed] = 1;
      sched.crash_rounds = env.crash_rounds;
    }
    env.sampler = std::make_unique<ScheduleSampler>(sched);
    return env;
  };
  ReplicatedLog rlog(cfg, std::move(machines), env_of);

  std::printf(
      "replicated log: %d replicas, pipeline=%d, batch=%d, leader p%d "
      "(p%d crashes from slot 5)\n\n",
      kN, cfg.pipeline, cfg.batch, kLeader, kCrashed);

  Rng rng(2027);
  int submitted = 0;
  while (!(submitted == kCommands && rlog.drained())) {
    // A bursty closed loop: 0-2 fresh commands per tick until the
    // budget is spent, so some batches fill and some hit the deadline.
    const int burst = static_cast<int>(rng.uniform_int(3));
    for (int i = 0; i < burst && submitted < kCommands; ++i, ++submitted) {
      rlog.submit(
          make_kv_command(static_cast<std::uint32_t>(rng.uniform_int(4)),
                          static_cast<std::uint32_t>(1000 + submitted)));
    }
    rlog.tick();
    for (const SlotRecord& r : rlog.take_committed()) {
      if (!r.committed) {
        std::fprintf(stderr, "slot %d abandoned\n", r.slot);
        return 1;
      }
      std::printf(
          "slot %2d: %zu cmd(s), decided tick %3lld, committed tick %3lld "
          "(%d attempt(s), %2d rounds)%s\n",
          r.slot, r.ops.size(), r.decided_tick, r.committed_tick,
          r.attempts, r.rounds,
          r.decided_tick < r.committed_tick ? "  <- decided early, waited"
                                            : "");
    }
  }

  const auto& kv = static_cast<const KvStateMachine&>(rlog.machine(0));
  std::printf("\nfinal store (replica 0): %s\n", kv.describe().c_str());
  std::printf("committed %d slots across %lld ticks\n",
              rlog.slots_committed(), rlog.now());

  // Replica 3 missed every slot it was crashed for: the full-group
  // check reports divergence, the survivor check must not.
  if (rlog.consistent()) {
    std::fprintf(stderr,
                 "crashed replica unexpectedly caught up (consistent() "
                 "should be false)\n");
    return 1;
  }
  if (!rlog.consistent_among(rlog.alive_at_end())) {
    std::fprintf(stderr, "surviving replicas diverged!\n");
    return 1;
  }
  std::printf(
      "crashed replica p%d is behind (expected); all surviving replicas "
      "hold identical stores (fingerprints match).\n",
      kCrashed);
  return 0;
}

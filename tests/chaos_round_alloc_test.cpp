// Allocation guard for the chaos round, the inner loop of the smr and
// chaos gates and of the adversary hunt: a FaultInjectedSampler over a
// ScheduleSampler samples each round into one reused PackedLinkMatrix,
// and a RoundEngine steps the protocols over it. Once warm, that loop
// must not touch the heap: the schedule's fates are drawn into the
// matrix's own planes, the repair keeps its process lists as member
// scratch, and a send's destination set is a value. A whole chaos execution (set-up,
// rounds, and the trace checks over the recorded events) allocates
// only per execution, never per round or per message. This binary
// replaces the global operator new with a counting one, so it holds
// only these tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "consensus/factory.hpp"
#include "fault/chaos.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "giraf/engine.hpp"
#include "models/schedule.hpp"
#include "oracles/omega.hpp"
#include "sim/link_matrix.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TIMING_SANITIZED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TIMING_SANITIZED_ALLOCATOR 1
#endif
#endif

namespace {
std::atomic<long long> g_allocations{0};
}  // namespace

// The sanitizers bring their own allocator; counting is left to them.
#if !defined(TIMING_SANITIZED_ALLOCATOR)
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace timing {
namespace {

/// Heap allocations made by `rounds` chaos rounds of `kind` at n = 5,
/// after `warm` rounds of the same run.
long long allocations_in_warm_rounds(AlgorithmKind kind, int warm,
                                     int rounds) {
  constexpr int kN = 5;
  constexpr ProcessId kLeader = 0;
  constexpr std::uint64_t kSeed = 20261019;
  const fault::FaultPlan plan = fault::random_fault_plan(kN, kLeader, kSeed);
  const std::vector<Round> crashes = fault::crash_rounds(plan, kN);

  RoundEngine engine(make_group(kind, {100, 101, 102, 103, 104}),
                     std::make_shared<UnstableOracle>(kN, kLeader,
                                                      plan.gsr - 1, kSeed));
  ScheduleConfig sched;
  sched.n = kN;
  sched.model = fault::native_model(kind);
  sched.leader = kLeader;
  sched.gsr = plan.gsr;
  sched.seed = kSeed;
  sched.crash_rounds = crashes;
  for (ProcessId i = 0; i < kN; ++i) {
    const Round r = crashes[static_cast<std::size_t>(i)];
    if (r > 0) engine.crash_at(i, r);
  }
  ScheduleSampler schedule(sched);
  fault::InjectorConfig icfg;
  icfg.n = kN;
  icfg.leader = kLeader;
  icfg.seed = kSeed;
  fault::FaultInjector injector(plan, icfg);
  fault::FaultInjectedSampler sampler(schedule, injector);

  PackedLinkMatrix fates(kN);
  const auto round = [&] {
    sampler.sample_round(engine.current_round() + 1, fates);
    engine.step(fates);
  };
  for (int r = 0; r < warm; ++r) round();
  const long long before = g_allocations.load(std::memory_order_relaxed);
  for (int r = 0; r < rounds; ++r) round();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(ChaosRoundAllocations, WarmRoundsDoNotAllocate) {
#if defined(TIMING_SANITIZED_ALLOCATOR)
  GTEST_SKIP() << "the sanitizer's allocator replaces the counting one";
#else
  for (const AlgorithmKind kind : {AlgorithmKind::kWlm, AlgorithmKind::kPaxos}) {
    // The counter sees the cold rounds' allocations (the delay plane,
    // the in-flight queue) ...
    EXPECT_GT(allocations_in_warm_rounds(kind, 0, 200), 0)
        << algorithm_key(kind);
    // ... and the bound leaves room for that queue to grow past its
    // warm-up high-water mark a few times.
    EXPECT_LT(allocations_in_warm_rounds(kind, 200, 1000), 20)
        << algorithm_key(kind);
  }
#endif
}

/// Mean heap allocations per fault::run_chaos_algorithm execution of
/// `kind` at n = 5, each under its own random plan, over `runs`
/// executions that follow `warm` ones on the same thread.
double allocations_per_execution(AlgorithmKind kind, int warm, int runs) {
  constexpr int kN = 5;
  constexpr ProcessId kLeader = 0;
  constexpr std::uint64_t kSeed = 20261019;
  std::vector<fault::ChaosTrialConfig> configs(
      static_cast<std::size_t>(warm + runs));
  for (std::size_t t = 0; t < configs.size(); ++t) {
    fault::ChaosTrialConfig& cfg = configs[t];
    cfg.n = kN;
    cfg.leader = kLeader;
    cfg.seed = substream_seed(kSeed, t);
    cfg.plan = fault::random_fault_plan(kN, kLeader, cfg.seed);
    cfg.max_rounds =
        fault::round_cap(kind, cfg.plan.gsr, fault::kChaosRoundFloor);
  }
  long long before = 0;
  for (std::size_t t = 0; t < configs.size(); ++t) {
    if (t == static_cast<std::size_t>(warm)) {
      before = g_allocations.load(std::memory_order_relaxed);
    }
    const fault::ChaosRunResult r = fault::run_chaos_algorithm(kind, configs[t]);
    EXPECT_TRUE(r.safety_ok) << algorithm_key(kind) << " " << r.violation;
  }
  return static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                             before) /
         runs;
}

TEST(ChaosRoundAllocations, WarmExecutionsAllocateOnlyPerExecution) {
#if defined(TIMING_SANITIZED_ALLOCATOR)
  GTEST_SKIP() << "the sanitizer's allocator replaces the counting one";
#else
  // lm_over_wlm is left out: each odd round copies every received
  // message into a relay whose vectors grow from empty (CHANGES.md's
  // FOUND line on LmOverWlmSimulation::compute; about 230 allocations
  // per execution).
  for (const AlgorithmKind kind :
       {AlgorithmKind::kWlm, AlgorithmKind::kEs3, AlgorithmKind::kLm3,
        AlgorithmKind::kAfm5, AlgorithmKind::kPaxos}) {
    // An execution runs about 15 rounds. Its set-up (protocols, engine,
    // sampler, injector) and its summary allocate a few dozen times; a
    // per-round or per-message allocation anywhere on the path adds
    // more than the bound's slack.
    EXPECT_LT(allocations_per_execution(kind, 200, 1000), 80.0)
        << algorithm_key(kind);
  }
#endif
}

}  // namespace
}  // namespace timing
